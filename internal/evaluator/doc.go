// Package evaluator implements the paper's core contribution: a quality
// metric evaluator that answers each query either by running the real
// simulation (evaluateAccuracy in the paper) or, when enough previously
// simulated configurations lie within L1 distance d, by kriging them
// (lines 7-24 of Algorithms 1 and 2).
//
// The same component provides the replay protocol used to build Table I:
// feed the recorded trajectory of a simulation-only optimisation run, in
// trace order, through Evaluate of an in-memory Evaluator whose simulator
// answers from the trace, and compare every kriged value against the
// recorded truth.
//
// # Request lifecycle: context and cancellation
//
// Every query runs under a context.Context. EvaluateContext,
// EvaluateAllContext and the Oracle/Engine adapters abort on a cancelled
// or expired context: before a simulation starts always, and inside one
// when the simulator implements ContextSimulator (plain Simulators
// finish their current run first, so cancellation costs at most one
// simulation latency). A cancelled batch is discarded whole — no store
// insert, no counter movement beyond the engine's admission counters —
// leaving the evaluator as if the batch had never been issued. The context-free Evaluate/EvaluateAll
// remain as thin background-context wrappers.
//
// # Single-flight coalescing
//
// Simulations are the expensive resource, so the evaluator never runs
// two live simulations of the same configuration at the same time:
// concurrent identical misses from Evaluate callers and Engine users
// coalesce onto one in-flight "flight" (keyed by the store's config
// hash). The first caller simulates and stores the value; the rest block
// on its result. Exactly one Stats.NSim increment and one store insert
// happen per flight, a follower whose own context dies stops waiting
// immediately, and a follower whose OWNER is cancelled retries instead
// of inheriting the cancellation. A batch coalesces only within itself:
// EvaluateAll answers a repeated configuration once and commits its
// simulations after the whole batch has succeeded, outside the flight
// table. Options.DisableCoalescing restores the fire-and-simulate
// reference behaviour; sequential callers are bit-identical either way.
//
// # One request path: the Engine
//
// Every simulation goes through an Engine, which admits it under an
// optional bound on the simulations in flight. New gives each evaluator
// an unbounded engine that Evaluate, EvaluateAll and Oracle delegate
// to; Evaluator.Engine builds a bounded one for serving many tenants.
// Its Evaluate and EvaluateAll admit live queries and batch members
// through the same bound (coalesced followers never hold a slot), and
// its Oracle adapts it for the optimisers. K optimiser instances sharing
// one engine — the multi-tenant scenario in internal/bench — pay one
// simulation per distinct configuration no matter how their
// trajectories collide.
//
// # Concurrency
//
// An Evaluator is safe for concurrent use: the support store publishes
// lock-free views (see internal/store), the activity counters are
// atomic, and EvaluateAll runs whole queries — decision, kriging and
// simulation — on a bounded worker pool against a point-in-time store
// snapshot, producing results that are deterministic regardless of
// worker count. The Oracle adapter exposes both the single-query and the
// batched path to the optimisers in internal/optim.
//
// # Bulk ingestion
//
// Whole-campaign writes ride the store's amortized bulk path
// (store.AddBatch, one view publication per batch): EvaluateAll commits
// a successful batch's simulation results in input order through it,
// ModePaper replay (alone among the modes) bulk-loads its measurement
// store from the recorded trace, and Preload warm-starts an evaluator
// from a previous campaign — fed a trajectory persisted with SaveTrace
// and read back with LoadTrace, the expensive simulation-only recording
// is paid once and every later study starts from its store in
// milliseconds.
package evaluator
