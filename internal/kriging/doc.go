// Package kriging implements the geostatistical interpolators at the heart
// of the paper: ordinary kriging exactly as written in Eqs. 7-10 (the
// (N+1)×(N+1) system with a Lagrange row enforcing the unbiasedness
// constraint of Eq. 6), simple kriging, universal kriging, and the
// inverse-distance and nearest-neighbour baselines used by the ablation
// benches.
//
// # Building the system
//
// Every call builds the kriging system of exactly its support: identify
// the semivariogram (a fixed Model, or a fit to the support), assemble
// the matrix, factorise. For n support points that costs O(n³), and n is
// small: the paper campaigns cap supports at ten points. The default power
// fit needs only two running sums over the support pairs, so it runs
// inside the Γ assembly loop and reuses each pair's h^β for the Γ entry,
// bit-for-bit the arithmetic of variogram.FitPower. The matrix, its
// factors and the fitted model live in pooled per-goroutine scratch, so
// with a fixed model or the default power fit a prediction allocates
// nothing. Positive definite covariance systems (simple kriging with a
// bounded model) factor by Cholesky; the ordinary-kriging saddle matrix
// of Eq. 9 is symmetric indefinite and takes pivoted LU.
//
// # Blocked batch prediction
//
// K queries sharing one support answer through PredictBatch /
// PredictVarBatch (ordinary, simple and universal kriging): one system
// build, all K right-hand sides assembled into one pooled column-major
// block, one blocked multi-RHS solve (linalg SolveBatchInto, 4-wide
// shared-coefficient kernels — SSE2 on amd64), and a 4-wide output
// sweep. This is the only implementation of Eq. 10: Predict and
// PredictVar are its K=1 case. Every column is bit-identical to
// predicting that query alone — the property wall in batch_test.go
// checks it against a single-query reference implementation — so
// callers (the evaluator's support groups) can group queries freely.
// A batch is allocation-free regardless of K.
//
// The interpolators hold only their configuration and are safe for
// concurrent use; a prediction depends on its support and query alone.
package kriging
