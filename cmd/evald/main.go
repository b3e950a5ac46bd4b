// Command evald serves the kriging-accelerated evaluation engine over
// HTTP: evaluation-as-a-service for the word-length optimisation
// benchmarks. Every tenant shares one evaluator, so exact hits and
// kriging support come from the shared store and identical concurrent
// misses coalesce onto one simulation.
//
// Configuration is environment-driven (see internal/config): EVALD_ADDR,
// EVALD_BENCH, EVALD_SIZE, EVALD_SEED, EVALD_WORKERS, EVALD_MAX_SIMS,
// EVALD_STATE_DIR, EVALD_D, EVALD_NNMIN, EVALD_MAX_SUPPORT,
// EVALD_DISABLE_COALESCING, EVALD_API_KEYS, EVALD_DRAIN_GRACE,
// EVALD_REQUEST_TIMEOUT, EVALD_SIM_WORKERS, EVALD_SIM_WORKER_CAP,
// EVALD_DISABLE_SHED.
// With no environment at all it serves the small FIR benchmark on :8080,
// unauthenticated, simulating in-process; EVALD_SIM_WORKERS moves
// simulation onto a pool of remote simd workers (see cmd/simd and
// internal/simpool) while the evaluator — store, kriging, coalescing —
// stays here.
//
// Endpoints:
//
//	POST /v1/evaluate   {"config":[8,12,10],"timeout_ms":500}
//	POST /v1/batch      {"configs":[[...],[...]],"timeout_ms":2000}
//	GET  /v1/stats      counters + coalescing/admission gauges
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining / after WAL failure)
//
// On SIGINT/SIGTERM the server drains: it stops accepting new requests,
// lets in-flight evaluations resolve (bounded by EVALD_DRAIN_GRACE), and
// closes the durable store so the write-ahead log is cleanly synced. A
// sticky state-store failure is reported at exit with a non-zero status.
package main

import (
	"log"
	"log/slog"
	"net"
	"os"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/config"
	"repro/internal/evaluator"
	"repro/internal/httpapi"
	"repro/internal/simpool"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("evald: ")
	cfg, err := config.FromEnv()
	if err != nil {
		log.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	size, err := cli.ParseSize(cfg.Size)
	if err != nil {
		log.Fatal(err)
	}
	sp, err := bench.SpecByName(cfg.Bench, size)
	if err != nil {
		log.Fatal(err)
	}
	// In-process simulation is the default fast path; EVALD_SIM_WORKERS
	// swaps in the remote pool, which the rest of the stack — engine,
	// coalescing, batch path — rides unchanged as a ContextSimulator.
	var sim evaluator.Simulator
	var pool *simpool.Pool
	if len(cfg.SimWorkers) > 0 {
		pool, err = simpool.NewPool(simpool.Options{
			Workers:      cfg.SimWorkers,
			Nv:           sp.Nv,
			PerWorkerCap: cfg.SimWorkerCap,
			Logger:       logger,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		sim = pool
	} else if sim, err = sp.NewSimulator(cfg.Seed); err != nil {
		log.Fatal(err)
	}

	evOpts := evaluator.Options{
		D:                 cfg.D,
		NnMin:             cfg.NnMin,
		MaxSupport:        cfg.MaxSupport,
		DisableCoalescing: cfg.DisableCoalescing,
		DisableShedding:   cfg.DisableShedding,
		StateDir:          cfg.StateDir,
	}
	if cfg.D > 0 {
		evOpts.Transform = evaluator.NegPowerToDB
		evOpts.Untransform = evaluator.DBToNegPower
	}
	ev, err := evaluator.New(sim, evOpts)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.StateDir != "" && ev.Store().Len() > 0 {
		logger.Info("state recovered", "entries", ev.Store().Len(), "dir", cfg.StateDir)
	}

	tenants := make([]httpapi.Tenant, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		tenants[i] = httpapi.Tenant{Name: t.Name, Key: t.Key, Quota: t.Quota, AllowDegraded: t.AllowDegraded}
	}
	srv := httpapi.New(httpapi.Options{
		Evaluator:      ev,
		Engine:         ev.Engine(cfg.MaxSims),
		Workers:        cfg.Workers,
		Tenants:        tenants,
		Bounds:         &sp.Bounds,
		DefaultTimeout: cfg.RequestTimeout,
		Logger:         logger,
		Pool:           pool,
	})

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		log.Fatal(err)
	}
	ctx, stop := cli.SignalContext()
	defer stop()
	logger.Info("serving",
		"addr", ln.Addr().String(), "bench", sp.Name, "nv", sp.Nv,
		"max_sims", cfg.MaxSims, "tenants", len(tenants),
		"state_dir", cfg.StateDir, "auth", len(tenants) > 0,
		"sim_workers", len(cfg.SimWorkers))

	// ServeListener owns the drain: on the first signal it stops
	// accepting, waits out the in-flight futures, and closes the store.
	// Any error it returns — including the store's sticky durability
	// failure — must not exit 0: an operator script re-running a failed
	// campaign needs to see the difference.
	if err := srv.ServeListener(ctx, ln, cfg.DrainGrace); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	logger.Info("drained cleanly")
}
