// Package stats provides the summary math and tables used by the
// experiment harness: speedup computation and geometric means, matching how
// the paper reports results (speedups relative to a baseline, geometric mean
// over 29 benchmarks).
package stats

import (
	"fmt"
	"math"
)

// GeoMean returns the geometric mean of xs. It returns 1 for an empty slice
// so that ratios of empty sets are neutral, and panics on non-positive
// inputs because speedups are strictly positive by construction.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: GeoMean of non-positive value %g", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Speedup returns newIPC/baseIPC, the paper's figure-of-merit.
func Speedup(baseIPC, newIPC float64) float64 {
	if baseIPC <= 0 {
		panic("stats: Speedup with non-positive baseline IPC")
	}
	return newIPC / baseIPC
}
