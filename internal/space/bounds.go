package space

import "fmt"

// Bounds describes the axis-aligned box [Lo_i, Hi_i] containing the valid
// configurations of a benchmark, e.g. word-lengths in [2, 16].
type Bounds struct {
	Lo, Hi []int
}

// UniformBounds builds bounds with the same [lo, hi] range on every one of
// the nv dimensions.
func UniformBounds(nv, lo, hi int) Bounds {
	b := Bounds{Lo: make([]int, nv), Hi: make([]int, nv)}
	for i := 0; i < nv; i++ {
		b.Lo[i], b.Hi[i] = lo, hi
	}
	return b
}

// Dim returns the number of dimensions.
func (b Bounds) Dim() int { return len(b.Lo) }

// Validate checks internal consistency.
func (b Bounds) Validate() error {
	if len(b.Lo) != len(b.Hi) {
		return fmt.Errorf("space: bounds Lo/Hi length mismatch (%d vs %d)", len(b.Lo), len(b.Hi))
	}
	for i := range b.Lo {
		if b.Lo[i] > b.Hi[i] {
			return fmt.Errorf("space: bounds dimension %d has Lo %d > Hi %d", i, b.Lo[i], b.Hi[i])
		}
	}
	return nil
}

// Contains reports whether c lies within the box.
func (b Bounds) Contains(c Config) bool {
	if len(c) != len(b.Lo) {
		return false
	}
	for i, v := range c {
		if v < b.Lo[i] || v > b.Hi[i] {
			return false
		}
	}
	return true
}

// Corner returns the configuration at the low (false) or high (true)
// corner of the box.
func (b Bounds) Corner(high bool) Config {
	c := make(Config, b.Dim())
	for i := range c {
		if high {
			c[i] = b.Hi[i]
		} else {
			c[i] = b.Lo[i]
		}
	}
	return c
}
