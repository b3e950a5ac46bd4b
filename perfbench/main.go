// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — paper campaigns through the library, or evald's HTTP API
// under open-loop load — from inputs generated from a seed, checks the
// outputs, and prints every metric by name with its unit. The last line
// of standard output is one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{"name":{"value":…,"unit":…}}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing. With --trace 1 the run records spans around each layer's
// public interface and reports per-layer metrics instead. Workloads and
// metrics are documented in README.md beside this file.
//
// Usage:
//
//	perfbench --workload campaign-seq|campaign-batch|service-read|remote-sim
//	          --seed N --seconds S --trace 0|1 [--workdir DIR]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the untraced metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"campaigns_per_min", "1/min"},
	{"cpu_s_per_campaign", "s"},
	{"sims_per_campaign", "count"},
	{"total_bits", "bits"},
	{"eps_mean_bits", "bits"},
	{"eps_max_bits", "bits"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p99", "ms"},
	{"max_rps", "1/s"},
	{"rss_mb", "MB"},
}

// perLayer lists the traced-run metrics every workload reports; a layer
// a workload does not cross reads 0.
var perLayer = []struct{ name, unit string }{
	{"signal.ms_per_sim", "ms"},
	{"hevc.ms_per_sim", "ms"},
	{"sim.busy_pct", "%"},
	{"optim.evals_per_campaign", "count"},
	{"optim.self_ms_per_campaign", "ms"},
	{"evaluator.exact_pct", "%"},
	{"evaluator.interp_pct", "%"},
	{"evaluator.mean_support", "count"},
	{"evaluator.eq2_speedup", "x"},
	{"evaluator.speedup_measured", "x"},
	{"evaluator.self_us_per_query", "us"},
	{"evaluator.batch_predict_pct", "%"},
	{"evaluator.batch_self_ms_per_round", "ms"},
	{"evaluator.coalesced", "count"},
	{"evaluator.shed", "count"},
	{"evaluator.queue_expired", "count"},
	{"kriging.predict_calls", "count"},
	{"kriging.us_per_predict", "us"},
	{"kriging.batch_calls", "count"},
	{"kriging.us_per_batch_col", "us"},
	{"kriging.fallbacks", "count"},
	{"kriging.distinct_supports", "count"},
	{"store.us_per_lookup", "us"},
	{"store.us_per_nearestk", "us"},
	{"store.len", "count"},
	{"store.wal_bytes_per_sim", "B"},
	{"httpapi.rtt_us_p50", "us"},
	{"httpapi.overhead_us", "us"},
	{"httpapi.bytes_per_req", "B"},
	{"simpool.dup_pct", "%"},
	{"simpool.hedged", "count"},
	{"simpool.retried", "count"},
	{"simpool.overhead_ms_per_sim", "ms"},
	{"loadgen.latency_ms_p50", "ms"},
	{"loadgen.latency_ms_p99", "ms"},
	{"loadgen.max_rps", "1/s"},
	{"loadgen.lag_ms_p99", "ms"},
	{"loadgen.sent", "count"},
	{"runtime.alloc_kb_per_query", "KB"},
	{"trace.self_sum_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"error_pct", "%"},
	{"infeasible_pct", "%"},
}

// args are the command-line inputs shared by every workload.
type args struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	workdir  string
}

// report accumulates one run's outcome.
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func newReport() *report { return &report{values: make(map[string]float64)} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// fail records a failed output check; the run then exits non-zero.
func (r *report) fail(format string, a ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

var workloads = map[string]func(context.Context, args, *report) error{
	"campaign-seq":   func(ctx context.Context, a args, r *report) error { return campaignWorkload(ctx, a, r, modeSeq) },
	"campaign-batch": func(ctx context.Context, a args, r *report) error { return campaignWorkload(ctx, a, r, modeBatch) },
	"remote-sim":     func(ctx context.Context, a args, r *report) error { return campaignWorkload(ctx, a, r, modeRemote) },
	"service-read":   serviceWorkload,
}

func main() {
	var a args
	var secs, trace int
	flag.StringVar(&a.workload, "workload", "", "campaign-seq, campaign-batch, service-read or remote-sim")
	flag.Uint64Var(&a.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.IntVar(&secs, "seconds", 10, "measured duration of the run")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.StringVar(&a.workdir, "workdir", ".bench_build/perfbench", "scratch directory (state dirs, span dumps)")
	flag.Parse()
	a.seconds, a.trace = time.Duration(secs)*time.Second, trace == 1
	run, ok := workloads[a.workload]
	if !ok || secs < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", a.workload, secs, trace)
		os.Exit(2)
	}
	if err := os.MkdirAll(a.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newReport()
	if err := run(context.Background(), a, r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	list := endToEnd
	if a.trace {
		list = perLayer
	}
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok && !a.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", a.workload, m.name)
			os.Exit(1)
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
		fmt.Printf("%-36s %14.6g %s\n", m.name, v, m.unit)
	}
	extra := make([]string, 0, len(r.values))
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Printf("  (%s %.6g)\n", name, r.values[name])
	}
	for _, p := range r.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// timedSetup runs a set-up runs times and returns the median of their
// speed-normalized durations (setup_s); the last set-up is the one the
// run measures. teardown releases an earlier set-up before the next.
func timedSetup(runs int, fn func() error, teardown func() error) (float64, error) {
	var ds []float64
	for i := 0; i < runs; i++ {
		if i > 0 && teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		p0 := probe()
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		ds = append(ds, scaled(d, speedScale(p0, probe())).Seconds())
	}
	return median(ds), nil
}
