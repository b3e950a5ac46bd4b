package metrics

import "errors"

// SSIM computes the structural similarity index between two equally-sized
// grayscale images (values in [0, maxVal]), using the standard single
// -scale formulation of Wang et al. with the usual constants
// C1 = (0.01·L)², C2 = (0.03·L)² applied globally over the image (the
// 8×8 blocks of the HEVC benchmark are already local windows, so no
// sliding window is applied on top).
//
// SSIM is the paper's kind of "quality of service" metric: bounded,
// non-linear in the pixel error, and not expressible analytically from
// the approximation sources — exactly the case where the paper argues a
// generic interpolation-based evaluator earns its keep.
func SSIM(a, b [][]float64, maxVal float64) (float64, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, errors.New("metrics: SSIM images empty or of different heights")
	}
	if maxVal <= 0 {
		return 0, errors.New("metrics: SSIM needs a positive dynamic range")
	}
	var muA, muB float64
	n := 0
	for y := range a {
		if len(a[y]) != len(b[y]) {
			return 0, errors.New("metrics: SSIM rows of different widths")
		}
		for x := range a[y] {
			muA += a[y][x]
			muB += b[y][x]
			n++
		}
	}
	if n == 0 {
		return 0, ErrEmpty
	}
	muA /= float64(n)
	muB /= float64(n)
	var varA, varB, cov float64
	for y := range a {
		for x := range a[y] {
			da := a[y][x] - muA
			db := b[y][x] - muB
			varA += da * da
			varB += db * db
			cov += da * db
		}
	}
	varA /= float64(n)
	varB /= float64(n)
	cov /= float64(n)
	c1 := (0.01 * maxVal) * (0.01 * maxVal)
	c2 := (0.03 * maxVal) * (0.03 * maxVal)
	num := (2*muA*muB + c1) * (2*cov + c2)
	den := (muA*muA + muB*muB + c1) * (varA + varB + c2)
	return num / den, nil
}
