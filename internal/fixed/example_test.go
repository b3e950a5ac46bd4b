package fixed_test

import (
	"fmt"

	"repro/internal/fixed"
)

// ExampleQuantizer_Quantize shows the truncation and range behaviour of
// a signed Q1.3 format (1 integer bit, 3 fractional bits).
func ExampleQuantizer_Quantize() {
	q := fixed.NewFormat(1, 3).Compile()
	fmt.Println(q.Quantize(0.3))  // truncated to the 1/8 grid
	fmt.Println(q.Quantize(5.0))  // saturated to Max
	fmt.Println(q.Quantize(-0.3)) // truncation rounds toward -inf
	// Output:
	// 0.25
	// 1.875
	// -0.375
}

// ExampleDatapath shows how a benchmark exposes its quantisation nodes as
// optimisation variables.
func ExampleDatapath() {
	d := fixed.NewDatapath()
	d.AddNode("mult_out", 0)
	d.AddNode("add_out", 2)
	// Compile a word-length configuration: 4 fractional bits at the
	// multiplier, 6 at the accumulator.
	q := make([]fixed.Quantizer, d.Nv())
	if err := d.Compile(q, []int{4, 6}); err != nil {
		panic(err)
	}
	p := q[0].Quantize(0.7 * 0.3)
	fmt.Println(p, q[1].Quantize(1.0+p))
	// Output:
	// 0.1875 1.1875
}
