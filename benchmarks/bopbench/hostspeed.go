package main

import "time"

// Host-speed normalisation. The box this benchmark was sized on (a 2-vCPU
// KVM guest) switches each vCPU between two speed modes 28% apart and stays
// in one for seconds at a time; a pure-ALU loop and the simulator slow down
// by the same factor (measured: the ratio of the two agrees within 1%). Left
// alone, that makes the run-to-run spread of a single-threaded timing 15-20%
// of its median, far above any bound worth enforcing. Every timed rep of a
// single-simulation workload is therefore bracketed by a short reference
// kernel, and its wall is divided by how much slower than nominal the
// reference ran: over 10 s windows that brings the spread to about 0.5%.
//
// Sweeps keep both vCPUs busy through the mode switches of either one, and
// samples taken before and after a render that lasts a second or more do
// not predict them (measured: no better than the raw wall), so sweeps
// report raw wall.

const refIters = 500_000

// refNominal is the reference kernel's wall in the fast mode of the box the
// benchmark was sized on. It only fixes the scale of the normalised
// numbers: on that box's fast mode a normalised second is a wall second.
const refNominal = 718 * time.Microsecond

// hostSlowdown reports how much slower than nominal the reference kernel
// runs right now on the calling goroutine's CPU. It takes the fastest of a
// few short samples, which a preemption or a background GC cycle cannot
// slow, while a speed mode (which lasts seconds) shows in every one.
func hostSlowdown() float64 {
	best := time.Duration(1 << 62)
	for k := 0; k < 6; k++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < refIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink += x
		best = min(best, time.Since(t0))
	}
	return float64(best) / float64(refNominal)
}
