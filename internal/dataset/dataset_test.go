package dataset

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestSignalBoundsAndDeterminism(t *testing.T) {
	a := Signal(rng.New(1), 1000, 0.9)
	if len(a) != 1000 {
		t.Fatalf("len = %d", len(a))
	}
	for i, v := range a {
		if math.Abs(v) > 0.9 {
			t.Fatalf("sample %d = %v exceeds amplitude", i, v)
		}
	}
	b := Signal(rng.New(1), 1000, 0.9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different signals")
		}
	}
	c := Signal(rng.New(2), 1000, 0.9)
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds, identical signals")
	}
}

func TestSignalHasEnergy(t *testing.T) {
	x := Signal(rng.New(3), 2000, 1)
	var p float64
	for _, v := range x {
		p += v * v
	}
	p /= float64(len(x))
	if p < 0.01 {
		t.Errorf("signal power %v suspiciously low", p)
	}
}

func TestComplexPartsIndependent(t *testing.T) {
	re, im := Complex(rng.New(4), 256, 0.9)
	if len(re) != 256 || len(im) != 256 {
		t.Fatal("wrong lengths")
	}
	same := true
	for i := range re {
		if re[i] != im[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("real and imaginary parts identical")
	}
}

func TestBlockShapeAndRange(t *testing.T) {
	b := Block(rng.New(5), 15, 15, 0.999)
	if len(b) != 15 {
		t.Fatalf("rows = %d", len(b))
	}
	for y, row := range b {
		if len(row) != 15 {
			t.Fatalf("row %d has %d cols", y, len(row))
		}
		for x, v := range row {
			if v < 0 || v > 0.999 {
				t.Fatalf("pixel (%d,%d) = %v out of range", y, x, v)
			}
		}
	}
}

func TestBlockSmoothness(t *testing.T) {
	// Natural-image-like blocks should have modest pixel-to-pixel jumps
	// relative to the full range.
	b := Block(rng.New(6), 15, 15, 1)
	var sumJump float64
	n := 0
	for y := 0; y < 15; y++ {
		for x := 1; x < 15; x++ {
			sumJump += math.Abs(b[y][x] - b[y][x-1])
			n++
		}
	}
	if mean := sumJump / float64(n); mean > 0.25 {
		t.Errorf("mean horizontal jump %v: block is noise, not texture", mean)
	}
}

func TestImagesShapeClassesDeterminism(t *testing.T) {
	imgs := Images(rng.New(7), 20, 3, 8, 8, 5)
	if len(imgs) != 20 {
		t.Fatalf("images = %d", len(imgs))
	}
	counts := map[int]int{}
	for _, im := range imgs {
		if im.Ch != 3 || im.H != 8 || im.W != 8 || len(im.Pix) != 3*8*8 {
			t.Fatal("bad image shape")
		}
		if im.Class < 0 || im.Class >= 5 {
			t.Fatalf("class %d", im.Class)
		}
		counts[im.Class]++
	}
	for cls, c := range counts {
		if c != 4 {
			t.Errorf("class %d has %d images, want 4", cls, c)
		}
	}
	again := Images(rng.New(7), 20, 3, 8, 8, 5)
	if again[3].Pix[10] != imgs[3].Pix[10] {
		t.Error("image generation not deterministic")
	}
}
