// Package linalg implements the small dense linear-algebra kernel needed
// by the kriging solver: matrices, vectors, LU decomposition with partial
// pivoting, Cholesky decomposition and triangular solves.
//
// The kriging systems in this reproduction are tiny to moderate (a
// handful to a few hundred support points plus one Lagrange row), so the
// implementation favours clarity and numerical robustness; the one
// concession to throughput is the blocked multi-RHS path below, whose
// kernels stay bit-compatible with the scalar ones. Everything is
// written against the standard library only.
//
// # Factorisations
//
// [Factorize] produces a pivoted LU factor for general square systems —
// the symmetric indefinite saddle matrix of ordinary kriging (Eq. 9)
// takes this path. [FactorizeCholesky] covers symmetric positive
// definite systems — the covariance form of simple kriging.
//
// # Blocked multi-RHS solves
//
// A batch of k right-hand sides against one factor solves as a
// column-major block through [Cholesky.SolveBatchInto] /
// [LU.SolveBatchInto]: columns are swept four at a time, sharing each
// factor-row load across the four columns (the BLAS-3 shape), with
// leftover columns falling through to SolveInto. The inner kernels keep
// each column's two-chain accumulation order exactly that of the
// single-RHS path, so every column of a batch solve is BIT-IDENTICAL to
// a standalone SolveInto — the contract the kriging batch-prediction
// property tests pin down. On amd64 the 4-column dot kernel is SSE2
// assembly (dot4cols_amd64.s) that maps the two accumulator chains onto
// the two lanes of one XMM register; per-lane packed arithmetic is
// scalar IEEE-754, so the assembly and portable kernels agree bit for
// bit (differentially tested). [Dot4] exposes the same 4-wide kernel
// for composing batch outputs from weight columns.
//
// # Scratch discipline
//
// The Solve methods allocate their result; the SolveInto variants write
// into a caller-provided destination so repeated solves against one
// factor (the kriging prediction hot path) can reuse scratch buffers and
// stay allocation-free. [Cholesky.SolveInto] tolerates dst aliasing b;
// [LU.SolveInto] does not (the row permutation scatters b into dst).
// [Cholesky.SolveBatchInto] likewise tolerates dst aliasing b while
// [LU.SolveBatchInto] requires distinct blocks.
package linalg
