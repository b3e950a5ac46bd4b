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
			if qs[i].Quantize(v) != n.Format(cfg[i]).Quantize(v) {
				t.Fatalf("node %d: compiled and uncompiled formats disagree at %v", i, v)
			}
		}
	}
}
