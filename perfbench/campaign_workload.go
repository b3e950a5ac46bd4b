package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/evaluator"
	"repro/internal/optim"
)

// prefixBlocks is how many blocks of campaigns a run times. The quality
// metrics (sims, bits, ε, feasibility) are taken on them, so they repeat
// exactly for a seed.
var prefixBlocks = map[campaignMode]int{modeSeq: 3, modeBatch: 2, modeRemote: 2}

// campaignWorkload runs campaign-seq, campaign-batch or remote-sim. The
// campaigns are timed in passes, repeated until the run's seconds are
// used (at least two). Each campaign does identical work in every pass,
// and every pass must reproduce the first one's results exactly; a
// campaign's time, normalized to the machine's speed, is its fastest
// pass, so a stall from outside the process inflates one pass, not the
// reported figure.
func campaignWorkload(ctx context.Context, a args, r *report, mode campaignMode) error {
	var (
		prefix []*job
		env    *campaignEnv
	)
	setup, err := timedSetup(5, func() error {
		js, err := newJobSource(a.seed)
		if err != nil {
			return err
		}
		prefix = nil
		for b := 0; b < prefixBlocks[mode]; b++ {
			blk, err := js.block()
			if err != nil {
				return err
			}
			prefix = append(prefix, blk...)
		}
		env, err = newCampaignEnv(mode, a.workdir)
		return err
	}, func() error { return env.close() })
	if err != nil {
		return err
	}
	defer env.close()
	r.set("setup_s", setup)
	if a.trace {
		return tracedCampaigns(ctx, a, r, env, prefix)
	}

	start := time.Now()
	first, err := runPass(ctx, env, prefix, runOpts{keep: true}, r)
	if err != nil {
		return err
	}
	n := len(first)
	best := append([]outcome(nil), first...)
	calls := make([][]time.Duration, n)
	for i, o := range first {
		best[i].wall, best[i].cpu = scaled(o.wall, o.scale), scaled(o.cpu, o.scale)
		for _, c := range o.calls {
			calls[i] = append(calls[i], scaled(c, o.scale))
		}
	}
	for pass := 1; pass < 2 || time.Since(start) < a.seconds; pass++ {
		outs, err := runPass(ctx, env, prefix, runOpts{}, r)
		if err != nil {
			return err
		}
		if len(outs) != n {
			return fmt.Errorf("pass %d completed %d campaigns, the first %d", pass, len(outs), n)
		}
		for i, o := range outs {
			f := first[i]
			if o.stats.NSim != f.stats.NSim || o.stats.NInterp != f.stats.NInterp || !o.wres.Equal(f.wres) || len(o.calls) != len(f.calls) {
				r.fail("campaign %d: pass %d did not reproduce the first pass (sims %d/%d)", f.job.idx, pass, o.stats.NSim, f.stats.NSim)
				continue
			}
			best[i].wall = min(best[i].wall, scaled(o.wall, o.scale))
			best[i].cpu = min(best[i].cpu, scaled(o.cpu, o.scale))
			for k, c := range o.calls {
				calls[i][k] = min(calls[i][k], scaled(c, o.scale))
			}
		}
	}
	q, err := assess(first, a.seed, mode.remote)
	if err != nil {
		if !errors.Is(err, errCheck) {
			return err
		}
		r.fail("%v", err)
	}
	var wall, cpu time.Duration
	var lat []float64
	var queries int
	var sims, bits float64
	for i, o := range best {
		wall += o.wall
		cpu += o.cpu
		queries += o.queries
		sims += float64(o.stats.NSim)
		bits += optim.TotalBits(o.wres)
		for _, c := range calls[i] {
			lat = append(lat, ms(c))
		}
	}
	r.set("campaigns_per_min", 60*float64(n)/wall.Seconds())
	r.set("cpu_s_per_campaign", cpu.Seconds()/float64(n))
	r.set("sims_per_campaign", sims/float64(n))
	r.set("total_bits", bits/float64(n))
	r.set("eps_mean_bits", mean(q.eps))
	r.set("eps_max_bits", q.epsMax)
	r.set("latency_ms_p50", percentile(lat, 50))
	r.set("latency_ms_p99", percentile(lat, min(99, tailPercentile(len(lat)))))
	r.set("max_rps", float64(queries)/wall.Seconds())
	r.set("rss_mb", peakRSSMB())
	r.set("infeasible_pct", 100*float64(q.infeasible)/float64(q.campaigns))
	r.set("error_pct", 100*float64(r.failed)/float64(max(r.attempted, 1)))
	return nil
}

// runPass runs campaigns one after another, counting each as attempted
// and any error as failed.
func runPass(ctx context.Context, env *campaignEnv, jobs []*job, ro runOpts, r *report) ([]outcome, error) {
	var outs []outcome
	for _, j := range jobs {
		r.attempted++
		o, err := env.runCampaign(ctx, j, ro)
		if err != nil {
			r.fail("%v", err)
			continue
		}
		outs = append(outs, o)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("every campaign failed")
	}
	return outs, nil
}

// tracedCampaigns is the traced run: the timed campaigns untraced, then
// with every layer decorated, then untraced again. The traced pass must
// reproduce the untraced counts exactly; its spans give the per-layer
// metrics.
func tracedCampaigns(ctx context.Context, a args, r *report, env *campaignEnv, prefix []*job) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ref, err := runPass(ctx, env, prefix, runOpts{keep: true}, r)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)
	tr, kc := newTracer(), newInterpCounts()
	traced, err := runPass(ctx, env, prefix, runOpts{tr: tr, kc: kc, keep: true, reissue: true}, r)
	if err != nil {
		return err
	}
	// A second untraced pass after the traced one: each campaign's
	// reference time is its faster untraced pass, so neither a cold
	// first pass nor one stalled pass poses as tracing overhead.
	ref2, err := runPass(ctx, env, prefix, runOpts{}, r)
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	if err := writeSpans(filepath.Join(a.workdir, a.workload+".spans.csv"), spans); err != nil {
		return err
	}
	qRef, err := assess(ref, a.seed, false)
	if err != nil {
		return err
	}
	qTr, err := assess(traced, a.seed, false)
	if err != nil {
		return err
	}
	if len(ref) != len(traced) || len(ref2) != len(traced) {
		r.fail("traced pass completed %d campaigns, untraced %d and %d", len(traced), len(ref), len(ref2))
		return nil
	}
	for i := range ref {
		x, y := ref[i], traced[i]
		if x.stats.NSim != y.stats.NSim || x.stats.NInterp != y.stats.NInterp ||
			x.stats.NBatchPredict != y.stats.NBatchPredict || !x.wres.Equal(y.wres) {
			r.fail("campaign %d: traced run diverged (sims %d/%d, batch %d/%d)", x.job.idx,
				x.stats.NSim, y.stats.NSim, x.stats.NBatchPredict, y.stats.NBatchPredict)
		}
	}
	if mean(qRef.eps) != mean(qTr.eps) || qRef.epsMax != qTr.epsMax {
		r.fail("traced ε %v/%v differs from untraced %v/%v", mean(qTr.eps), qTr.epsMax, mean(qRef.eps), qRef.epsMax)
	}

	var agg evaluator.Stats
	var wallRef, wall, wallN time.Duration
	var answers, batches, storeLen int
	var walBytes, lookupNS, nearNS float64
	for i, o := range traced {
		wallRef += min(scaled(ref[i].wall, ref[i].scale), scaled(ref2[i].wall, ref2[i].scale))
		wall += o.wall
		wallN += scaled(o.wall, o.scale)
		answers += o.queries
		batches += o.batches
		storeLen += o.storeLen
		walBytes += float64(o.walBytes)
		lookupNS += o.lookupNS
		nearNS += o.nearNS
		s := o.stats
		agg.NSim += s.NSim
		agg.NInterp += s.NInterp
		agg.SumNeigh += s.SumNeigh
		agg.NBatchPredict += s.NBatchPredict
		agg.NCoalesced += s.NCoalesced
		agg.NShed += s.NShed
		agg.NQueueExpired += s.NQueueExpired
		agg.SimTime += s.SimTime
		agg.InterpTime += s.InterpTime
	}
	n := float64(len(traced))
	lt := layerTotals(spans)
	get := func(name string) *layerTotal {
		if t := lt[name]; t != nil {
			return t
		}
		return &layerTotal{}
	}
	var simSelf, allSelf float64
	for name, t := range lt {
		if strings.HasPrefix(name, "sim.") {
			simSelf += t.self
		}
		allSelf += t.self
	}
	iir, fft, hevc := get("sim.iir"), get("sim.fft"), get("sim.hevc")
	oracle, batch := get("optim.oracle"), get("optim.oracle_batch")
	wallNS := float64(wall)
	r.set("signal.ms_per_sim", safeDiv(iir.dur+fft.dur, float64(iir.n+fft.n))/1e6)
	r.set("hevc.ms_per_sim", safeDiv(hevc.dur, float64(hevc.n))/1e6)
	r.set("sim.busy_pct", 100*simSelf/wallNS)
	r.set("optim.evals_per_campaign", float64(answers)/n)
	r.set("optim.self_ms_per_campaign", get("campaign").self/n/1e6)
	r.set("evaluator.exact_pct", 100*float64(answers-agg.NSim-agg.NInterp)/float64(answers))
	r.set("evaluator.interp_pct", agg.PercentInterpolated())
	r.set("evaluator.mean_support", agg.MeanNeighbors())
	r.set("evaluator.eq2_speedup", agg.EstimatedSpeedup())
	r.set("evaluator.self_us_per_query", (oracle.self+batch.self)/float64(answers)/1e3)
	r.set("evaluator.batch_predict_pct", 100*safeDiv(float64(agg.NBatchPredict), float64(agg.NInterp)))
	r.set("evaluator.batch_self_ms_per_round", safeDiv(batch.self, float64(batches))/1e6)
	r.set("evaluator.coalesced", float64(agg.NCoalesced))
	r.set("evaluator.shed", float64(agg.NShed))
	r.set("evaluator.queue_expired", float64(agg.NQueueExpired))
	setKriging(r, lt, kc)
	r.set("store.us_per_lookup", lookupNS/n/1e3)
	r.set("store.us_per_nearestk", nearNS/n/1e3)
	r.set("store.len", float64(storeLen)/n)
	r.set("store.wal_bytes_per_sim", safeDiv(walBytes, float64(agg.NSim)))
	if env.mode.remote {
		var remote, hedged, retried float64
		for _, ps := range env.pools[len(env.pools)-len(traced):] {
			remote += float64(ps.NRemoteSims)
			hedged += float64(ps.NHedged)
			retried += float64(ps.NRetried)
		}
		call := get("simpool.call")
		r.set("simpool.dup_pct", 100*(remote-float64(agg.NSim))/float64(agg.NSim))
		r.set("simpool.hedged", hedged)
		r.set("simpool.retried", retried)
		r.set("simpool.overhead_ms_per_sim", safeDiv(call.self, float64(call.n))/1e6)
	}
	r.set("runtime.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(answers))
	r.set("trace.self_sum_pct", 100*allSelf/wallNS)
	r.set("trace.overhead_pct", 100*(float64(wallN)/float64(wallRef)-1))
	r.set("infeasible_pct", 100*float64(qTr.infeasible)/float64(qTr.campaigns))
	if env.mode == modeSeq {
		// Eq. 2 cross-check: the first block again with interpolation
		// off, against the same block's kriging wall time.
		sim, err := runPass(ctx, env, prefix[:blockSize], runOpts{noKrig: true}, r)
		if err != nil {
			return err
		}
		var simWall, krigWall time.Duration
		for i, o := range sim {
			simWall += scaled(o.wall, o.scale)
			krigWall += min(scaled(ref[i].wall, ref[i].scale), scaled(ref2[i].wall, ref2[i].scale))
		}
		r.set("evaluator.speedup_measured", float64(simWall)/float64(krigWall))
	}
	if d := r.values["trace.self_sum_pct"]; d < 95 || d > 105 {
		r.fail("per-layer self times sum to %.1f%% of wall time", d)
	}
	r.set("error_pct", 100*float64(r.failed)/float64(max(r.attempted, 1)))
	return nil
}

// setKriging reports the kriging layer from its spans and counters.
func setKriging(r *report, lt map[string]*layerTotal, kc *interpCounts) {
	pred, batch := lt["kriging.predict"], lt["kriging.batch"]
	if pred == nil {
		pred = &layerTotal{}
	}
	if batch == nil {
		batch = &layerTotal{}
	}
	r.set("kriging.predict_calls", float64(kc.predicts.Load()))
	r.set("kriging.us_per_predict", safeDiv(pred.dur, float64(pred.n))/1e3)
	r.set("kriging.batch_calls", float64(kc.batches.Load()))
	r.set("kriging.us_per_batch_col", safeDiv(batch.dur, float64(kc.cols.Load()))/1e3)
	r.set("kriging.fallbacks", float64(kc.fallbacks.Load()))
	r.set("kriging.distinct_supports", float64(kc.distinctSupports()))
}
