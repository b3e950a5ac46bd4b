// Package simpool decouples simulation from evaluation: the expensive
// Simulator runs in separate worker processes (cmd/simd) and the
// evaluator schedules over HTTP through a client-side Pool that looks,
// to the rest of the system, like just another context-aware simulator.
// The Engine, single-flight coalescing, the batch path and evald all
// ride it unchanged — N machines' worth of simulator capacity serving
// one evaluator is what lets simulation stop being the wall-clock
// dominator.
//
// The two halves:
//
//   - Worker is the server side: it wraps any Simulator behind
//     POST /v1/simulate with per-worker concurrency slots, API-key
//     authentication, strict JSON decoding, GET /healthz, a graceful
//     drain gate and structured request logging — the same middleware
//     discipline as internal/httpapi, without depending on it.
//
//   - Pool is the client-side scheduler: per-worker outstanding-request
//     accounting with least-loaded dispatch, bounded exponential backoff
//     with jittered retries, hedged duplicate dispatch for stragglers,
//     and retry-on-worker-death — a worker that fails transport or
//     health checks is quarantined, its in-flight configurations are
//     requeued onto the survivors, and a background probe admits it
//     back with backoff.
//
// Hedging has one rule: a configuration whose sole attempt has run
// longer than the p99 of the pool's recent round-trips (100ms before
// the first is recorded) gets one duplicate on the least-loaded other
// healthy worker with spare capacity, an idle one when there is one.
//
// Failure has one model, in four steps:
//
//  1. Quarantine: a worker that fails transport, answers 5xx or tears a
//     response is taken out of rotation, and its in-flight configs are
//     requeued onto the survivors.
//  2. Ladder: a config with no healthy worker left backs off with
//     jittered exponential delays, counting each round against
//     MaxAttempts; when the attempts run out it fails with ErrNoWorkers.
//  3. Latch: a config that exhausts its attempts while every worker is
//     quarantined and at least one is still probed latches the pool
//     down. Later configs that find no healthy worker fail at once with
//     *UnavailableError, whose RetryAfterHint is the time until the
//     next probe. A fleet pinned out by auth failures never latches: a
//     wrong key is a configuration error that waiting cannot fix.
//  4. Probe: a background /healthz probe, with its own backoff,
//     readmits a recovered worker and clears the latch, so the same
//     Pool recovers without a restart.
//
// Hedging is safe because simulation is deterministic per
// configuration: the first response wins, duplicates merely burn spare
// worker capacity (they are counted separately in Stats), and the
// evaluator's single-flight table already deduplicates at the request
// layer, so no duplicate ever reaches the store.
//
// The package is stdlib-only (net/http + encoding/json), keeping the
// module dependency-free, and imports nothing above internal/space: the
// evaluator consumes a Pool purely through its ContextSimulator-shaped
// method set.
package simpool
