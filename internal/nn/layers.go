package nn

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Conv2D is a 2-D convolution with square kernels, stride 1 and "same"
// zero padding for odd kernel sizes (pad = K/2).
type Conv2D struct {
	InC, OutC, K int
	Weight       []float64 // [outC][inC][K][K] flattened
	Bias         []float64 // [outC]
}

// NewConv2D builds a convolution with He-scaled deterministic
// pseudo-random weights drawn from r. The sensitivity benchmark does not
// need trained weights (its metric is agreement with the error-free run
// of the same network), but the scaling keeps activations in a sane range
// through ten layers.
func NewConv2D(r *rng.Stream, inC, outC, k int) *Conv2D {
	c := &Conv2D{
		InC: inC, OutC: outC, K: k,
		Weight: make([]float64, outC*inC*k*k),
		Bias:   make([]float64, outC),
	}
	std := math.Sqrt(2 / float64(inC*k*k))
	for i := range c.Weight {
		c.Weight[i] = r.NormScaled(0, std)
	}
	for i := range c.Bias {
		c.Bias[i] = r.NormScaled(0, 0.05)
	}
	return c
}

// Forward applies the convolution.
func (c *Conv2D) Forward(in *Tensor) (*Tensor, error) {
	if in.C != c.InC {
		return nil, fmt.Errorf("nn: conv expects %d input channels, got %d", c.InC, in.C)
	}
	pad := c.K / 2
	out := NewTensor(c.OutC, in.H, in.W)
	for oc := 0; oc < c.OutC; oc++ {
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				acc := c.Bias[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.K; ky++ {
						sy := y + ky - pad
						if sy < 0 || sy >= in.H {
							continue
						}
						rowW := c.Weight[((oc*c.InC+ic)*c.K+ky)*c.K:]
						rowI := in.Data[(ic*in.H+sy)*in.W:]
						for kx := 0; kx < c.K; kx++ {
							sx := x + kx - pad
							if sx < 0 || sx >= in.W {
								continue
							}
							acc += rowW[kx] * rowI[sx]
						}
					}
				}
				out.Set(oc, y, x, acc)
			}
		}
	}
	return out, nil
}

// ReLU applies max(0, x) element-wise, in place, and returns its input.
func ReLU(t *Tensor) *Tensor {
	for i, v := range t.Data {
		if v < 0 {
			t.Data[i] = 0
		}
	}
	return t
}

// MaxPool2 halves the spatial dimensions with a 2×2/stride-2 max pool.
// Odd trailing rows/columns are dropped (floor semantics).
func MaxPool2(in *Tensor) (*Tensor, error) {
	oh, ow := in.H/2, in.W/2
	if oh == 0 || ow == 0 {
		return nil, fmt.Errorf("nn: maxpool on %dx%d spatial input", in.H, in.W)
	}
	out := NewTensor(in.C, oh, ow)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				m := in.At(c, 2*y, 2*x)
				if v := in.At(c, 2*y, 2*x+1); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x); v > m {
					m = v
				}
				if v := in.At(c, 2*y+1, 2*x+1); v > m {
					m = v
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out, nil
}

// GlobalAvgPool reduces each channel to its spatial mean, returning a
// C-length vector.
func GlobalAvgPool(in *Tensor) []float64 {
	out := make([]float64, in.C)
	n := float64(in.H * in.W)
	for c := 0; c < in.C; c++ {
		var s float64
		for y := 0; y < in.H; y++ {
			for x := 0; x < in.W; x++ {
				s += in.At(c, y, x)
			}
		}
		out[c] = s / n
	}
	return out
}

// Argmax returns the index of the largest element (lowest index wins
// ties), or -1 for empty input.
func Argmax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, v := range xs[1:] {
		if v > xs[best] {
			best = i + 1
		}
	}
	return best
}

// Fire is the SqueezeNet fire module: a 1×1 squeeze convolution followed
// by parallel 1×1 and 3×3 expand convolutions whose outputs are
// concatenated along the channel axis.
type Fire struct {
	Squeeze   *Conv2D
	Expand1x1 *Conv2D
	Expand3x3 *Conv2D
}

// NewFire builds a fire module with the given channel plan.
func NewFire(r *rng.Stream, inC, squeezeC, expandC int) *Fire {
	return &Fire{
		Squeeze:   NewConv2D(r, inC, squeezeC, 1),
		Expand1x1: NewConv2D(r, squeezeC, expandC, 1),
		Expand3x3: NewConv2D(r, squeezeC, expandC, 3),
	}
}

// Forward applies the module (ReLU after squeeze and after each expand).
func (f *Fire) Forward(in *Tensor) (*Tensor, error) {
	s, err := f.Squeeze.Forward(in)
	if err != nil {
		return nil, err
	}
	ReLU(s)
	e1, err := f.Expand1x1.Forward(s)
	if err != nil {
		return nil, err
	}
	e3, err := f.Expand3x3.Forward(s)
	if err != nil {
		return nil, err
	}
	ReLU(e1)
	ReLU(e3)
	out := NewTensor(e1.C+e3.C, in.H, in.W)
	copy(out.Data[:len(e1.Data)], e1.Data)
	copy(out.Data[len(e1.Data):], e3.Data)
	return out, nil
}
