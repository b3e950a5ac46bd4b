// Package dataset generates the deterministic synthetic inputs the
// benchmarks are simulated on: multi-tone test signals for the filter and
// FFT kernels, pixel blocks for the HEVC motion-compensation module, and
// labelled images for the CNN sensitivity benchmark.
//
// The paper evaluates on "an arbitrary large pre-defined input data set";
// since the authors' data is not distributed, each generator synthesises
// an input population with the statistics the kernel expects (bounded
// amplitude for fixed-point datapaths, natural-image-like smoothness for
// the pixel blocks). Substitutions are catalogued in DESIGN.md §3.
package dataset

import (
	"math"

	"repro/internal/rng"
)

// Signal synthesises n samples of a bounded multi-tone signal with
// additive Gaussian noise: a sum of three incommensurate sinusoids plus
// noise, scaled into (-amplitude, amplitude). This is a standard
// fixed-point test stimulus: it exercises the whole dynamic range without
// saturating and has a broad spectrum.
func Signal(r *rng.Stream, n int, amplitude float64) []float64 {
	out := make([]float64, n)
	// Random phases decorrelate data sets drawn from different streams.
	p1 := 2 * math.Pi * r.Float64()
	p2 := 2 * math.Pi * r.Float64()
	p3 := 2 * math.Pi * r.Float64()
	for i := 0; i < n; i++ {
		t := float64(i)
		v := 0.45*math.Sin(2*math.Pi*0.031*t+p1) +
			0.30*math.Sin(2*math.Pi*0.137*t+p2) +
			0.15*math.Sin(2*math.Pi*0.293*t+p3) +
			0.05*r.Norm()
		if v > 0.999 {
			v = 0.999
		}
		if v < -0.999 {
			v = -0.999
		}
		out[i] = amplitude * v
	}
	return out
}

// Complex splits a real multi-tone signal into interleaved re/im pairs
// for the FFT benchmark: the imaginary part is a second independent tone
// mix so that both datapath halves carry energy.
func Complex(r *rng.Stream, n int, amplitude float64) (re, im []float64) {
	re = Signal(r, n, amplitude)
	im = Signal(r, n, amplitude)
	return re, im
}

// Block synthesises one h×w block of smooth pseudo-natural pixels in
// [0, maxVal], as consumed by the HEVC interpolation filters. The block
// is a sum of low-frequency 2-D cosines plus mild texture noise —
// piecewise-smooth like real video content, which matters because the
// interpolation filters are designed for band-limited inputs.
func Block(r *rng.Stream, h, w int, maxVal float64) [][]float64 {
	fy1 := 0.5 + 2*r.Float64()
	fx1 := 0.5 + 2*r.Float64()
	fy2 := 2 + 3*r.Float64()
	fx2 := 2 + 3*r.Float64()
	py := 2 * math.Pi * r.Float64()
	px := 2 * math.Pi * r.Float64()
	dc := 0.3 + 0.4*r.Float64()
	out := make([][]float64, h)
	for y := 0; y < h; y++ {
		row := make([]float64, w)
		for x := 0; x < w; x++ {
			v := dc +
				0.25*math.Cos(fy1*float64(y)/float64(h)*math.Pi+py)*
					math.Cos(fx1*float64(x)/float64(w)*math.Pi+px) +
				0.10*math.Cos(fy2*float64(y)/float64(h)*math.Pi)*
					math.Cos(fx2*float64(x)/float64(w)*math.Pi) +
				0.03*r.Norm()
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			row[x] = v * maxVal
		}
		out[y] = row
	}
	return out
}

// Image is one synthetic classification input: a ch×h×w tensor in
// channel-major layout together with an implicit class structure (the
// class shifts the spatial frequency content, so a classifier network can
// separate classes while error injection can flip decisions).
type Image struct {
	Ch, H, W int
	Pix      []float64 // len == Ch*H*W, [c][y][x] flattened
	Class    int
}

// Images synthesises n labelled images of shape ch×h×w across nClasses
// classes. Class k modulates the dominant spatial frequency and channel
// mix, giving a dataset a random-weight convolutional feature extractor
// still maps to well-spread logits — which is what the sensitivity
// benchmark needs (the metric is agreement with the error-free reference,
// not absolute accuracy).
func Images(r *rng.Stream, n, ch, h, w, nClasses int) []Image {
	out := make([]Image, n)
	for i := range out {
		class := i % nClasses
		img := Image{Ch: ch, H: h, W: w, Class: class, Pix: make([]float64, ch*h*w)}
		base := 1 + float64(class)*0.7
		pc := 2 * math.Pi * r.Float64()
		for c := 0; c < ch; c++ {
			gain := 0.5 + 0.5*math.Cos(float64(c)+float64(class))
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := gain*math.Sin(base*float64(x)/float64(w)*2*math.Pi+pc)*
						math.Cos(base*float64(y)/float64(h)*2*math.Pi) +
						0.15*r.Norm()
					img.Pix[(c*img.H+y)*img.W+x] = v
				}
			}
		}
		out[i] = img
	}
	return out
}
