package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (results, error) {
	var r results
	raw, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one end-to-end metric on one workload: base against change.
//
//	regressed   the change's median is worse than the base's by more than
//	            the bound, and both sides' spreads are within the bound
//	unresolved  either side's run-to-run spread (interquartile range over
//	            median) is wider than the bound, unless every sample of the
//	            change reads better than every sample of the base
//	ok          otherwise
func verdict(m metricDef, a, b e2eValue) (ratio float64, v string) {
	ratio = b.Median / a.Median
	worse := ratio - 1
	if m.Better == "higher" {
		worse = 1 - ratio
	}
	noisy := a.spread() > m.Bound || b.spread() > m.Bound
	switch {
	case noisy && !allBetter(m, a.summary, b.summary):
		return ratio, "unresolved"
	case worse > m.Bound:
		return ratio, "regressed"
	}
	return ratio, "ok"
}

// allBetter reports whether every sample of b reads better than every
// sample of a.
func allBetter(m metricDef, a, b summary) bool {
	if a.N == 0 || b.N == 0 {
		return false
	}
	if m.Better == "higher" {
		return b.Min > a.Max
	}
	return b.Max < a.Min
}

// compareFiles prints, for every end-to-end metric on every workload, both
// medians and quartiles, the ratio with its base, and a verdict; it requires
// sim_digest and every exact per-layer count to match. It returns non-zero
// on a regression or a mismatch.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadResults(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bopbench:", err)
		return 2
	}
	b, err := loadResults(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bopbench:", err)
		return 2
	}
	if a.Seed != b.Seed || a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(stderr, "bopbench: runs are not comparable: seed %d/%d, scale %d/%d, seconds %g/%g\n",
			a.Seed, b.Seed, a.Scale, b.Scale, a.Seconds, b.Seconds)
		return 2
	}
	byName := map[string]workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	bad := false
	fmt.Fprintf(stdout, "base %s, change %s (ratio = change / base)\n", pathA, pathB)
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-20s missing from %s\n", wa.Name, pathB)
			bad = true
			continue
		}
		for _, m := range endToEnd {
			bound := a.Bounds[m.Name]
			va, vb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			ratio, v := verdict(bound, va, vb)
			fmt.Fprintf(stdout, "%-20s %-16s base %.6g [%.6g %.6g] change %.6g [%.6g %.6g] %s ratio %.3f bound %.0f%% %s\n",
				wa.Name, m.Name, va.Median, va.Q1, va.Q3, vb.Median, vb.Q1, vb.Q3, m.Unit, ratio, 100*bound.Bound, v)
			bad = bad || v == "regressed"
		}
		if wa.SimDigest != wb.SimDigest {
			fmt.Fprintf(stdout, "%-20s sim_digest MISMATCH %.16s vs %.16s\n", wa.Name, wa.SimDigest, wb.SimDigest)
			bad = true
		}
		if wb.Failed > wa.Failed {
			fmt.Fprintf(stdout, "%-20s failed operations rose: %d -> %d\n", wa.Name, wa.Failed, wb.Failed)
			bad = true
		}
		for _, m := range perLayer {
			if !m.Exact {
				continue
			}
			if x, y := wa.PerLayer[m.Name].Value, wb.PerLayer[m.Name].Value; x != y {
				fmt.Fprintf(stdout, "%-20s %s MISMATCH %v vs %v\n", wa.Name, m.Name, x, y)
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	fmt.Fprintln(stdout, "sim_digest and exact counts identical on every workload")
	return 0
}
