package space

import "testing"

func TestUniformBounds(t *testing.T) {
	b := UniformBounds(3, 2, 16)
	if b.Dim() != 3 {
		t.Fatalf("Dim = %d", b.Dim())
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if b.Lo[i] != 2 || b.Hi[i] != 16 {
			t.Fatal("wrong bounds")
		}
	}
}

func TestValidateRejectsInverted(t *testing.T) {
	b := Bounds{Lo: []int{5}, Hi: []int{3}}
	if b.Validate() == nil {
		t.Error("inverted bounds validated")
	}
	b2 := Bounds{Lo: []int{1, 2}, Hi: []int{3}}
	if b2.Validate() == nil {
		t.Error("mismatched bounds validated")
	}
}

func TestContains(t *testing.T) {
	b := UniformBounds(2, 0, 10)
	if !b.Contains(Config{0, 10}) {
		t.Error("corner not contained")
	}
	if b.Contains(Config{-1, 5}) || b.Contains(Config{5, 11}) {
		t.Error("out-of-box contained")
	}
	if b.Contains(Config{5}) {
		t.Error("wrong-dimension config contained")
	}
}

func TestCorner(t *testing.T) {
	b := UniformBounds(2, 3, 9)
	lo, hi := b.Corner(false), b.Corner(true)
	if lo[0] != 3 || lo[1] != 3 || hi[0] != 9 || hi[1] != 9 {
		t.Errorf("corners %v %v", lo, hi)
	}
}
