package nn

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestTensorBasics(t *testing.T) {
	x := NewTensor(2, 3, 4)
	if len(x.Data) != 24 {
		t.Fatalf("len(Data) = %d", len(x.Data))
	}
	x.Set(1, 2, 3, 7)
	if x.At(1, 2, 3) != 7 {
		t.Error("Set/At mismatch")
	}
}

func TestTensorPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-dim tensor did not panic")
		}
	}()
	NewTensor(0, 1, 1)
}

func TestConvIdentityKernel(t *testing.T) {
	// A 1x1 convolution with weight 1 and bias 0 is the identity.
	c := &Conv2D{InC: 1, OutC: 1, K: 1, Weight: []float64{1}, Bias: []float64{0}}
	in := NewTensor(1, 3, 3)
	for i := range in.Data {
		in.Data[i] = float64(i)
	}
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatal("identity conv changed values")
		}
	}
}

func TestConvKnown3x3(t *testing.T) {
	// A 3x3 averaging kernel over a constant image keeps the constant in
	// the interior and scales at the border (zero padding).
	w := make([]float64, 9)
	for i := range w {
		w[i] = 1.0 / 9
	}
	c := &Conv2D{InC: 1, OutC: 1, K: 3, Weight: w, Bias: []float64{0}}
	in := NewTensor(1, 5, 5)
	for i := range in.Data {
		in.Data[i] = 9
	}
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.At(0, 2, 2)-9) > 1e-12 {
		t.Errorf("interior = %v", out.At(0, 2, 2))
	}
	if math.Abs(out.At(0, 0, 0)-4) > 1e-12 { // only 4 of 9 taps inside
		t.Errorf("corner = %v", out.At(0, 0, 0))
	}
}

func TestConvBias(t *testing.T) {
	c := &Conv2D{InC: 1, OutC: 1, K: 1, Weight: []float64{0}, Bias: []float64{2.5}}
	out, err := c.Forward(NewTensor(1, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data {
		if v != 2.5 {
			t.Fatal("bias not applied")
		}
	}
}

func TestConvChannelMismatch(t *testing.T) {
	c := NewConv2D(rng.New(1), 3, 4, 3)
	if _, err := c.Forward(NewTensor(2, 4, 4)); err == nil {
		t.Error("channel mismatch accepted")
	}
}

func TestReLU(t *testing.T) {
	x := NewTensor(1, 1, 4)
	copy(x.Data, []float64{-1, 0, 2, -3})
	ReLU(x)
	want := []float64{0, 0, 2, 0}
	for i, v := range x.Data {
		if v != want[i] {
			t.Errorf("ReLU[%d] = %v", i, v)
		}
	}
}

func TestMaxPool2(t *testing.T) {
	in := NewTensor(1, 2, 4)
	copy(in.Data, []float64{
		1, 5, 2, 0,
		3, 4, 1, 7,
	})
	out, err := MaxPool2(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 1 || out.W != 2 {
		t.Fatalf("pooled shape %dx%d", out.H, out.W)
	}
	if out.At(0, 0, 0) != 5 || out.At(0, 0, 1) != 7 {
		t.Errorf("pool values %v", out.Data)
	}
}

func TestMaxPoolTooSmall(t *testing.T) {
	if _, err := MaxPool2(NewTensor(1, 1, 4)); err == nil {
		t.Error("1-row pool accepted")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	in := NewTensor(2, 2, 2)
	copy(in.Data, []float64{1, 2, 3, 4, 10, 10, 10, 10})
	out := GlobalAvgPool(in)
	if out[0] != 2.5 || out[1] != 10 {
		t.Errorf("GAP = %v", out)
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Error("argmax wrong")
	}
	if Argmax([]float64{2, 2}) != 0 {
		t.Error("argmax tie should pick lowest index")
	}
	if Argmax(nil) != -1 {
		t.Error("argmax of empty should be -1")
	}
}

func TestFireModuleShape(t *testing.T) {
	r := rng.New(3)
	f := NewFire(r, 8, 2, 4)
	out, err := f.Forward(NewTensor(8, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if out.C != 8 || out.H != 4 || out.W != 4 {
		t.Errorf("fire output shape %dx%dx%d", out.C, out.H, out.W)
	}
}

func TestSqueezeNetForwardShape(t *testing.T) {
	n := NewSqueezeNet(1, 3, 10)
	img := NewTensor(3, 16, 16)
	logits, err := n.Forward(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(logits) != 10 {
		t.Fatalf("logits = %d", len(logits))
	}
	cls, err := n.Classify(img, nil)
	if err != nil || cls < 0 || cls >= 10 {
		t.Errorf("class = %d, err = %v", cls, err)
	}
}

func TestSqueezeNetDeterministic(t *testing.T) {
	a := NewSqueezeNet(9, 3, 10)
	b := NewSqueezeNet(9, 3, 10)
	img := NewTensor(3, 16, 16)
	r := rng.New(4)
	for i := range img.Data {
		img.Data[i] = r.Norm()
	}
	la, _ := a.Forward(img, nil)
	lb, _ := b.Forward(img, nil)
	for i := range la {
		if la[i] != lb[i] {
			t.Fatal("same seed, different networks")
		}
	}
}

func TestInjectorChangesActivations(t *testing.T) {
	inj := &GaussianInjector{r: rng.New(5)}
	inj.Sigma[3] = 1
	x := NewTensor(1, 2, 2)
	before := append([]float64(nil), x.Data...)
	inj.Inject(3, x)
	changed := false
	for i := range x.Data {
		if x.Data[i] != before[i] {
			changed = true
		}
	}
	if !changed {
		t.Error("injection with sigma=1 changed nothing")
	}
	// Disabled layer leaves the tensor alone.
	y := NewTensor(1, 2, 2)
	inj.Inject(0, y)
	for _, v := range y.Data {
		if v != 0 {
			t.Error("injection at sigma=0 changed values")
		}
	}
}
