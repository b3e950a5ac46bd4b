package main

import (
	"math"
	"sort"
	"time"
)

// tailPercentiles are the candidate tail ranks, highest first. The
// benchmark reports a timing as its median and the highest of these
// percentiles that still has at least minBeyond samples above it, so a
// tail figure never rests on a handful of observations.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// tailPercentile returns the highest candidate percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-9 { // tolerate 99.9's rounding
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of xs (sorted in
// place). It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1]
}

// median is the 50th nearest-rank percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// mean is the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// safeDiv returns a/b, or 0 when b is 0.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
