package kriging

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// Blocked batch prediction is the one implementation of Eq. 10: K
// queries against ONE shared support build its system once and solve as
// a single column-major multi-RHS block (linalg SolveBatchInto, BLAS-3
// shape), and Predict/PredictVar are its K=1 case. The per-query costs a
// loop of single predictions pays K times — fitting and factoring the
// system, scratch pool round-trip, interface dispatch per variogram
// evaluation — are paid once per batch, and the triangular sweeps share
// each factor-row load across four columns.
//
// Contract: column j of a batch is bit-identical to predicting
// queries[j] alone, whatever K. Three ingredients make that hold (and
// the property wall in batch_test.go enforces it against a single-query
// reference implementation):
//
//   - the blocked linalg kernels replicate the single-RHS accumulation
//     order per column exactly;
//   - variogram.GammaInto performs the same per-element arithmetic as
//     Model.Gamma, merely devirtualised;
//   - the 4-wide output sweep (linalg.Dot4) is bit-identical per column
//     to linalg.Dot.
//
// The system and all block scratch come from the predict pool: with a
// fixed model or the default power fit, a batch performs zero heap
// allocations regardless of K.

// batchDims validates a batch call's shapes; outs are the caller-owned
// output slices (all must have one element per query).
func batchDims(xs [][]float64, ys []float64, queries [][]float64, outs ...[]float64) (n, k int, err error) {
	n, k = len(xs), len(queries)
	if len(ys) != n {
		return 0, 0, fmt.Errorf("kriging: %d coordinates but %d values", n, len(ys))
	}
	for _, out := range outs {
		if len(out) != k {
			return 0, 0, fmt.Errorf("kriging: %d queries but %d outputs", k, len(out))
		}
	}
	if n == 0 && k > 0 {
		return 0, 0, ErrNoSupport
	}
	return n, k, nil
}

// PredictBatch predicts all queries against one shared support, writing
// out[j] for queries[j]. See the comment above for the blocked execution
// shape and the bit-identity contract with single-query prediction.
func (o *Ordinary) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	s := predictPool.Get().(*predictScratch)
	defer predictPool.Put(s)
	return o.predictVarBatch(s, xs, ys, queries, out, growFloats(&s.vars, len(queries)))
}

// PredictVarBatch is PredictBatch returning the ordinary-kriging
// variance estimate alongside each value (PredictVar is its K=1 case).
func (o *Ordinary) PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	s := predictPool.Get().(*predictScratch)
	defer predictPool.Put(s)
	return o.predictVarBatch(s, xs, ys, queries, outVal, outVar)
}

// predictVarBatch builds the support's system in s and answers the
// queries from it.
func (o *Ordinary) predictVarBatch(s *predictScratch, xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	n, k, err := batchDims(xs, ys, queries, outVal, outVar)
	if err != nil {
		return err
	}
	if k == 0 {
		return nil
	}
	if n == 1 {
		for j := range outVal {
			outVal[j], outVar[j] = ys[0], 0
		}
		return nil
	}
	sys, err := o.system(s, xs, ys)
	if err != nil {
		return err
	}
	return o.solveBatch(s, sys, xs, ys, queries, outVal, outVar)
}

// solveBatch answers the queries from the factored saddle system of the
// support (xs, ys), which must hold at least two points, using the
// right-hand-side and weight blocks of s.
func (o *Ordinary) solveBatch(s *predictScratch, sys factored, xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	n, k := len(xs), len(queries)
	m := n + 1
	rhs := growFloats(&s.rhs, m*k)
	gammaColumns(rhs, m, sys.model, o.Dist, xs, queries)
	for j := 0; j < k; j++ {
		rhs[j*m+n] = 1 // the constraint row
	}
	w := growFloats(&s.w, m*k)
	if err := sys.solveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	weightDots(outVal, ys, w, m)
	for j, val := range outVal {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return ErrDegenerate
		}
		wc, rc := w[j*m:(j+1)*m], rhs[j*m:(j+1)*m]
		varEst := linalg.Dot(wc[:n], rc[:n])
		varEst += wc[n]
		if varEst < 0 {
			varEst = 0
		}
		outVar[j] = varEst
	}
	return nil
}

// gammaColumns fills the support block of each right-hand side, column
// j of rhs (stride m): rhs[j*m+i] = γ(dist(queries[j], xs[i])). A nil
// dist is L1, called directly rather than through a closure (the same
// arithmetic, inlinable), and the variogram sweep is devirtualised by
// variogram.GammaInto.
func gammaColumns(rhs []float64, m int, model variogram.Model, dist Distance, xs, queries [][]float64) {
	n := len(xs)
	for j, q := range queries {
		col := rhs[j*m : j*m+n]
		if dist == nil {
			for i := range col {
				col[i] = L1Distance(q, xs[i])
			}
		} else {
			for i := range col {
				col[i] = dist(q, xs[i])
			}
		}
		variogram.GammaInto(model, col, col)
	}
}

// weightDots writes out[j] = w_j · ys for the weight columns w_j of w
// (stride m), four columns at a time sharing the ys vector (Dot4 is
// bit-identical to per-column Dot).
func weightDots(out, ys, w []float64, m int) {
	n := len(ys)
	j := 0
	for ; j+3 < len(out); j += 4 {
		out[j], out[j+1], out[j+2], out[j+3] = linalg.Dot4(ys,
			w[j*m:j*m+n], w[(j+1)*m:(j+1)*m+n], w[(j+2)*m:(j+2)*m+n], w[(j+3)*m:(j+3)*m+n])
	}
	for ; j < len(out); j++ {
		out[j] = linalg.Dot(w[j*m:j*m+n], ys)
	}
}

// centeredDot returns mean + Σ w[i]·(ys[i]-mean) with the same paired
// accumulation as the linalg kernels: the simple-kriging output.
func centeredDot(mean float64, w, ys []float64) float64 {
	n := len(w)
	if n > len(ys) {
		n = len(ys)
	}
	var s0, s1 float64
	i := 0
	for ; i+1 < n; i += 2 {
		s0 += w[i] * (ys[i] - mean)
		s1 += w[i+1] * (ys[i+1] - mean)
	}
	if i < n {
		s0 += w[i] * (ys[i] - mean)
	}
	return mean + (s0 + s1)
}

// PredictBatch predicts all queries against one shared support: it
// builds the covariance system once and answers every query in one
// blocked solve (Predict is its K=1 case).
func (s *Simple) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	n, k, err := batchDims(xs, ys, queries, out)
	if err != nil {
		return err
	}
	if k == 0 {
		return nil
	}
	mean := s.Mean
	if !s.KnownMean {
		var sum float64
		for _, y := range ys {
			sum += y
		}
		mean = sum / float64(n)
	}
	if n == 1 {
		for j := range out {
			out[j] = ys[0]
		}
		return nil
	}
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	sys, err := s.system(sc, xs, ys)
	if err != nil {
		return err
	}
	if sys.sill == 0 {
		for j := range out {
			out[j] = mean
		}
		return nil
	}
	rhs := growFloats(&sc.rhs, n*k)
	gammaColumns(rhs, n, sys.model, s.Dist, xs, queries)
	for i, g := range rhs {
		rhs[i] = max(sys.sill-g, 0)
	}
	w := growFloats(&sc.w, n*k)
	if err := sys.solveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	for j := 0; j < k; j++ {
		val := centeredDot(mean, w[j*n:(j+1)*n], ys)
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return ErrDegenerate
		}
		out[j] = val
	}
	return nil
}

// PredictBatch predicts all queries against one shared support. The
// drift system depends on the support alone, so the batch assembles and
// factorises it ONCE and solves all K right-hand sides in one blocked
// call, where a loop of Predict calls refactorises per query.
// linalg.Factorize is deterministic, so results stay bit-identical to
// predicting each query alone; a degenerate drift system falls back to
// ordinary kriging.
func (u *Universal) PredictBatch(xs [][]float64, ys []float64, queries [][]float64, out []float64) error {
	n, k, err := batchDims(xs, ys, queries, out)
	if err != nil {
		return err
	}
	if k == 0 {
		return nil
	}
	if n == 1 {
		for j := range out {
			out[j] = ys[0]
		}
		return nil
	}
	dist := u.dist()
	model := u.Model
	if model == nil {
		var err error
		if u.PowerBeta != 0 {
			model, err = variogram.FitPower(variogram.CloudFromSamples(xs, ys, dist), u.PowerBeta, u.Nugget)
		} else {
			model, err = variogram.FitSamples(u.FitKind, xs, ys, dist, u.Nugget)
		}
		if err != nil {
			return err
		}
	}
	dims := driftDims(xs, n-2)
	m := 1 + len(dims)
	size := n + m
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	g := sc.matrix(size)
	scale := assembleGamma(g, model, xs, dist)
	jitter := 1e-12 * (scale + 1)
	for j := 0; j < n; j++ {
		g.Set(j, j, u.Nugget+jitter)
		g.Set(j, n, 1)
		g.Set(n, j, 1)
		for i, d := range dims {
			g.Set(j, n+1+i, xs[j][d])
			g.Set(n+1+i, j, xs[j][d])
		}
	}
	if err := linalg.Factorize(&sc.lu, g); err != nil {
		// A degenerate drift system (e.g. supports on a line queried
		// diagonally) falls back to ordinary kriging on the same model
		// rather than failing the evaluation.
		ord := Ordinary{Dist: u.Dist, Model: model, Nugget: u.Nugget}
		return ord.predictVarBatch(sc, xs, ys, queries, out, growFloats(&sc.vars, k))
	}
	rhs := growFloats(&sc.rhs, size*k)
	gammaColumns(rhs, size, model, u.Dist, xs, queries)
	for j, q := range queries {
		col := rhs[j*size : (j+1)*size]
		col[n] = 1
		for i, d := range dims {
			col[n+1+i] = q[d]
		}
	}
	w := growFloats(&sc.w, size*k)
	if err := sc.lu.SolveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	weightDots(out, ys, w, size)
	for _, val := range out {
		if math.IsNaN(val) || math.IsInf(val, 0) {
			return ErrDegenerate
		}
	}
	return nil
}
