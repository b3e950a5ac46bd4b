package kriging

import (
	"fmt"
	"math"

	"repro/internal/linalg"
	"repro/internal/variogram"
)

// Blocked batch prediction is the one implementation of Eq. 10: K
// queries against ONE shared support solve as a single column-major
// multi-RHS block through the cached factor (linalg SolveBatchInto,
// BLAS-3 shape), and Predict/PredictVar are its K=1 case. The per-query
// costs a loop of single predictions pays K times — fingerprint + cache
// lookup, scratch pool round-trip, interface dispatch per variogram
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
// All block scratch comes from the predict pool: a warm batch (cached
// factor) performs zero heap allocations regardless of K.

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
	// Variance sink; this frame's scratch only lends its vars field —
	// the inner call draws its own scratch from the pool.
	return o.PredictVarBatch(xs, ys, queries, out, growFloats(&s.vars, len(queries)))
}

// PredictVarBatch is PredictBatch returning the ordinary-kriging
// variance estimate alongside each value (PredictVar is its K=1 case).
func (o *Ordinary) PredictVarBatch(xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
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
	sys, err := o.cache.system(o, xs, ys)
	if err != nil {
		return err
	}
	return o.solveBatch(sys, xs, ys, queries, outVal, outVar)
}

// solveBatch answers the queries from the factored saddle system of the
// support (xs, ys), which must hold at least two points.
func (o *Ordinary) solveBatch(sys *factored, xs [][]float64, ys []float64, queries [][]float64, outVal, outVar []float64) error {
	n, k := len(xs), len(queries)
	dist := o.dist()
	defaultDist := o.Dist == nil
	s := predictPool.Get().(*predictScratch)
	defer predictPool.Put(s)
	m := n + 1
	// All K right-hand sides, column-major: distances first, then the
	// devirtualised variogram sweep in place, then the constraint row.
	// When the interpolator runs on the default metric the distance call
	// is devirtualised too (same function, direct and inlinable — the
	// arithmetic is identical to a call through the dist closure).
	rhs := growFloats(&s.rhs, m*k)
	for j, q := range queries {
		col := rhs[j*m : (j+1)*m]
		if defaultDist {
			for i := 0; i < n; i++ {
				col[i] = L1Distance(q, xs[i])
			}
		} else {
			for i := 0; i < n; i++ {
				col[i] = dist(q, xs[i])
			}
		}
		variogram.GammaInto(sys.model, col[:n], col[:n])
		col[n] = 1
	}
	w := growFloats(&s.w, m*k)
	if err := sys.solveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	// Output sweep, four queries at a time: the value dots share the ys
	// vector across columns (Dot4 is bit-identical to per-column Dot).
	var vals [4]float64
	for j := 0; j < k; j += 4 {
		lim := k - j
		if lim > 4 {
			lim = 4
		}
		if lim == 4 {
			vals[0], vals[1], vals[2], vals[3] = linalg.Dot4(ys,
				w[j*m:j*m+n], w[(j+1)*m:(j+1)*m+n], w[(j+2)*m:(j+2)*m+n], w[(j+3)*m:(j+3)*m+n])
		} else {
			for t := 0; t < lim; t++ {
				vals[t] = linalg.Dot(w[(j+t)*m:(j+t)*m+n], ys)
			}
		}
		for t := 0; t < lim; t++ {
			jj := j + t
			wc := w[jj*m : (jj+1)*m]
			rc := rhs[jj*m : (jj+1)*m]
			val := vals[t]
			varEst := linalg.Dot(wc[:n], rc[:n])
			varEst += wc[n]
			if varEst < 0 {
				varEst = 0
			}
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return ErrDegenerate
			}
			outVal[jj], outVar[jj] = val, varEst
		}
	}
	return nil
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

// PredictBatch predicts all queries against one shared support through
// the cached covariance factor in one blocked solve (Predict is its K=1
// case).
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
	sys, err := s.cache.system(s, xs, ys)
	if err != nil {
		return err
	}
	if sys.sill == 0 {
		for j := range out {
			out[j] = mean
		}
		return nil
	}
	dist := s.dist()
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	rhs := growFloats(&sc.rhs, n*k)
	defaultDist := s.Dist == nil
	for j, q := range queries {
		col := rhs[j*n : (j+1)*n]
		if defaultDist {
			for i := 0; i < n; i++ {
				col[i] = L1Distance(q, xs[i])
			}
		} else {
			for i := 0; i < n; i++ {
				col[i] = dist(q, xs[i])
			}
		}
		variogram.GammaInto(sys.model, col, col)
		for i := 0; i < n; i++ {
			cv := sys.sill - col[i]
			if cv < 0 {
				cv = 0
			}
			col[i] = cv
		}
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
// call — the biggest single win of the batch API, since Universal has no
// factor cache and a loop of Predict calls refactorises per query.
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
	g := linalg.NewMatrix(size, size)
	var scale float64
	for j := 0; j < n; j++ {
		for i := j + 1; i < n; i++ {
			gv := model.Gamma(dist(xs[j], xs[i]))
			g.Set(j, i, gv)
			g.Set(i, j, gv)
			if gv > scale {
				scale = gv
			}
		}
	}
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
	sc := predictPool.Get().(*predictScratch)
	defer predictPool.Put(sc)
	f, err := linalg.Factorize(g)
	if err != nil {
		// A degenerate drift system (e.g. supports on a line queried
		// diagonally) falls back to ordinary kriging on the same model
		// rather than failing the evaluation, factored once and uncached.
		ord := Ordinary{Dist: u.Dist, Model: model, Nugget: u.Nugget}
		sys, err := ord.factor(xs, ys)
		if err != nil {
			return err
		}
		return ord.solveBatch(sys, xs, ys, queries, out, growFloats(&sc.vars, k))
	}
	rhs := growFloats(&sc.rhs, size*k)
	defaultDist := u.Dist == nil
	for j, q := range queries {
		col := rhs[j*size : (j+1)*size]
		if defaultDist {
			for i := 0; i < n; i++ {
				col[i] = L1Distance(q, xs[i])
			}
		} else {
			for i := 0; i < n; i++ {
				col[i] = dist(q, xs[i])
			}
		}
		variogram.GammaInto(model, col[:n], col[:n])
		col[n] = 1
		for i, d := range dims {
			col[n+1+i] = q[d]
		}
	}
	w := growFloats(&sc.w, size*k)
	if err := f.SolveBatchInto(w, rhs, k); err != nil {
		return fmt.Errorf("%w: %v", ErrDegenerate, err)
	}
	var vals [4]float64
	for j := 0; j < k; j += 4 {
		lim := k - j
		if lim > 4 {
			lim = 4
		}
		if lim == 4 {
			vals[0], vals[1], vals[2], vals[3] = linalg.Dot4(ys,
				w[j*size:j*size+n], w[(j+1)*size:(j+1)*size+n],
				w[(j+2)*size:(j+2)*size+n], w[(j+3)*size:(j+3)*size+n])
		} else {
			for t := 0; t < lim; t++ {
				vals[t] = linalg.Dot(w[(j+t)*size:(j+t)*size+n], ys)
			}
		}
		for t := 0; t < lim; t++ {
			val := vals[t]
			if math.IsNaN(val) || math.IsInf(val, 0) {
				return ErrDegenerate
			}
			out[j+t] = val
		}
	}
	return nil
}
