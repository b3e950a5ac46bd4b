// Package kriging implements the geostatistical interpolators at the heart
// of the paper: ordinary kriging exactly as written in Eqs. 7-10 (the
// (N+1)×(N+1) system with a Lagrange row enforcing the unbiasedness
// constraint of Eq. 6), simple kriging, universal kriging, and the
// inverse-distance and nearest-neighbour baselines used by the ablation
// benches.
//
// # Factored-system caching
//
// Building a kriging system for n support points costs O(n³): fit a
// semivariogram, assemble the matrix, factorise. Every prediction solves
// a system factored from scratch for exactly its support. The
// interpolators keep the last DefaultCacheSize factored systems keyed by
// the exact support (coordinates and values, verified on every hit), so
// every further prediction over the same neighbourhood — the min+1
// competition's sibling candidates, leave-one-out cross validation,
// batch evaluation — reuses the factors and pays only the O(n²)
// right-hand-side assembly and triangular solves. A support that differs
// from a cached one in any point, however it was reached, is factored
// afresh: a cached λ never depends on what the cache saw before.
// Positive definite covariance systems (simple kriging with a bounded
// model) factor by Cholesky; the ordinary-kriging saddle matrix of Eq. 9
// is symmetric indefinite and takes pivoted LU. Cached and uncached
// predictions are bit-identical.
//
// # Blocked batch prediction
//
// K queries sharing one support answer through PredictBatch /
// PredictVarBatch (ordinary, simple and universal kriging): one cache
// lookup, all K right-hand sides assembled into one pooled column-major
// block, one blocked multi-RHS solve (linalg SolveBatchInto, 4-wide
// shared-coefficient kernels — SSE2 on amd64), and a 4-wide output
// sweep. This is the only implementation of Eq. 10: Predict and
// PredictVar are its K=1 case. Every column is bit-identical to
// predicting that query alone — the property wall in batch_test.go
// checks it against a single-query reference implementation — so
// callers (the evaluator's support groups) can group queries freely.
//
// Cache-hit predictions are allocation-free: per-query vectors come
// from pooled scratch and the factors solve in place; a warm
// PredictBatch is allocation-free regardless of K.
//
// The interpolators are safe for concurrent use: the cache is the only
// mutable state, it is mutex-guarded, and cached systems are immutable.
package kriging
