package main

import "time"

// The benchmark host is shared: a fixed loop ran between 116 and 213 ms
// from one second to the next, and whole minutes ran 20-30% slower than
// others. Every gated time is therefore normalized to the machine's
// speed at the moment it was taken. A probe — a fixed workload owned by
// the benchmark, so no change to the repository's code can speed it up
// — runs right before and right after each timed unit, and the unit's
// time is scaled by probeNominal / (mean probe time). Times read as if
// the host ran the probe in probeNominal; a change that makes the code
// faster still reads faster, while the host's slow minutes cancel out.
const probeNominal = 2500 * time.Microsecond

var (
	probeBuf  = make([]uint64, 1<<15) // 256 KB: the probe touches cache as the simulators do
	probeSink uint64
)

// probe runs the fixed workload and returns how long it took.
func probe() time.Duration {
	start := time.Now()
	x := uint64(1)
	for r := 0; r < 40; r++ {
		for i := range probeBuf {
			x = x*6364136223846793005 + 1442695040888963407
			probeBuf[i] ^= x >> 17
			x ^= probeBuf[(i*7)&(len(probeBuf)-1)]
		}
	}
	probeSink += x
	return time.Since(start)
}

// speedScale is the factor that maps a time measured between two probes
// onto the nominal machine speed.
func speedScale(before, after time.Duration) float64 {
	return float64(2*probeNominal) / float64(before+after)
}

// scaled applies a speed factor to a duration.
func scaled(d time.Duration, scale float64) time.Duration {
	return time.Duration(float64(d) * scale)
}
