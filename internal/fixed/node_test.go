package fixed

import (
	"testing"
)

func TestNodeSetFrac(t *testing.T) {
	n := NewNode("acc", 2)
	f := n.Format(7)
	if f.FracBits != 7 || f.IntBits != 2 {
		t.Errorf("Format(7) = %+v", f)
	}
	q := f.Compile()
	if got := q.Quantize(0.3); got != 0.2968750 {
		// 0.3 truncated to 7 fractional bits: floor(0.3*128)/128 = 38/128.
		t.Errorf("Quantize(0.3) = %v", got)
	}
}

func TestDatapathApply(t *testing.T) {
	d := NewDatapath()
	d.AddNode("a", 0)
	d.AddNode("b", 1)
	if d.Nv() != 2 {
		t.Fatalf("Nv = %d", d.Nv())
	}
	qs := make([]Quantizer, 2)
	if err := d.Compile(qs, []int{4, 9}); err != nil {
		t.Fatal(err)
	}
	if qs[0].step != 1.0/16 || qs[1].step != 1.0/512 {
		t.Error("Compile did not set fractional bits")
	}
	if qs[1].lo != -2 || qs[1].hi != 2-1.0/512 {
		t.Error("Compile lost integer bits")
	}
}

func TestDatapathApplyErrors(t *testing.T) {
	d := NewDatapath()
	d.AddNode("a", 0)
	qs := make([]Quantizer, 1)
	if err := d.Compile(qs, []int{1, 2}); err == nil {
		t.Error("wrong-length config accepted")
	}
	if err := d.Compile(qs, []int{-1}); err == nil {
		t.Error("negative word-length accepted")
	}
	if err := d.Compile(make([]Quantizer, 2), []int{1}); err == nil {
		t.Error("wrong-length dst accepted")
	}
}

func TestDatapathFormats(t *testing.T) {
	d := NewDatapath()
	d.AddNode("a", 0)
	d.AddNode("b", 2)
	qs := make([]Quantizer, 2)
	if err := d.Compile(qs, []int{5, 9}); err != nil {
		t.Fatal(err)
	}
	if qs[0] != NewFormat(0, 5).Compile() {
		t.Errorf("qs[0] = %+v", qs[0])
	}
	if qs[1] != NewFormat(2, 9).Compile() {
		t.Errorf("qs[1] = %+v", qs[1])
	}
	if err := d.Compile(make([]Quantizer, 2), []int{1}); err == nil {
		t.Error("short config accepted")
	}
	if err := d.Compile(qs, []int{-1, 2}); err == nil {
		t.Error("negative word-length accepted")
	}
}

func TestDatapathFormatsAgreeWithApply(t *testing.T) {
	d := NewDatapath()
	d.AddNode("x", 1)
	d.AddNode("y", 3)
	cfg := []int{7, 11}
	qs := make([]Quantizer, 2)
	if err := d.Compile(qs, cfg); err != nil {
		t.Fatal(err)
	}
	for i, n := range d.Nodes {
		for _, v := range []float64{0.3, -1.7, 2.22} {
			if qs[i].Quantize(v) != exp2Quantize(n.Format(cfg[i]), v) {
				t.Fatalf("node %d: compiled quantiser and oracle disagree at %v", i, v)
			}
		}
	}
}

// TestDatapathRejectsInexactWordLengths checks that Compile accepts a
// node up to the 53 bits float64 holds exactly and rejects a wider one:
// past that, the range ends and the step overflow their exponents, and
// the quantiser returns values outside the format (0.3 once quantised
// to -2 at 1024 fractional bits, and to 2.4e285 at 1100).
func TestDatapathRejectsInexactWordLengths(t *testing.T) {
	d := NewDatapath()
	d.AddNode("a", 1)
	d.AddNode("b", 0)
	qs, widest := make([]Quantizer, 2), []int{51, 52}
	if err := d.Compile(qs, widest); err != nil {
		t.Fatalf("53-bit nodes rejected: %v", err)
	}
	for i, n := range d.Nodes {
		f := n.Format(widest[i])
		for _, v := range []float64{0.3, -0.3, 1e9, -1e9} {
			if got := qs[i].Quantize(v); got != exp2Quantize(f, v) || got < f.Min() || got > f.Max() {
				t.Errorf("node %s: Quantize(%v) = %v, outside %+v or off the oracle", n.Name, v, got, f)
			}
		}
	}
	for _, cfg := range [][]int{{52, 2}, {2, 53}, {1024, 2}, {1100, 2}, {2, 1 << 20}} {
		if err := d.Compile(qs, cfg); err == nil {
			t.Errorf("config %v wider than 53 bits accepted", cfg)
		}
	}
}
