package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/trace"
)

// offsetRow is a stand-in's row of Figure 8 per workload: the speedup over
// next-line of each of Table 2's fixed offsets, and the offsets ranked by it,
// best first.
type offsetRow struct {
	speedup map[int]float64
	ranked  []int
}

// bestFrom returns the best-ranked offset of at least min.
func (r offsetRow) bestFrom(min int) int {
	for _, d := range r.ranked {
		if d >= min {
			return d
		}
	}
	return 0
}

func (r offsetRow) String() string {
	var b strings.Builder
	for _, d := range r.ranked[:6] {
		fmt.Fprintf(&b, " D=%d %.3f", d, r.speedup[d])
	}
	return "leading" + b.String()
}

// topMultiples holds when the five best offsets are all multiples of k.
func topMultiples(k int) func(offsetRow) bool {
	return func(r offsetRow) bool {
		for _, d := range r.ranked[:5] {
			if d%k != 0 {
				return false
			}
		}
		return true
	}
}

// standInCards state, for each stand-in whose pattern in trace's benchSpecs
// imitates an offset property the paper reports (Figure 8), that property as
// a predicate over the stand-in's row at 4 MB pages, 1 core, 100,000
// instructions. A property the stand-in does not have is a known deviation:
// its card asserts what is measured instead, and says so. A PR that retunes a
// stand-in changes its card in the same diff, citing the paper's figure.
//
// Readings (seed 1, speedup over next-line): 433.milc 256 / 192 / 96 / 128 /
// 64 / 32, 1.621–1.527; 470.lbm 15 / 10 / 25 / 20 / 30, 1.588–1.455;
// 462.libquantum 15 / 16 / 18 / 12 / 20, 1.409–1.406, and 1.398 or more
// from 12 to 32; 459.GemsFDTD D=1 1.000, D=30 0.961.
var standInCards = []struct {
	workload, property string
	holds              func(offsetRow) bool
}{
	{"433.milc", "the five best offsets are multiples of 32 (16-word chunks with 2KB jumps)", topMultiples(32)},
	{"470.lbm", "the five best offsets are multiples of 5", topMultiples(5)},
	{"462.libquantum", "only large offsets are timely: the best offset is at least 12, and every offset from 12 to 32 reads within 1% of it",
		func(r offsetRow) bool {
			best := r.ranked[0]
			for d, s := range r.speedup {
				if d >= 12 && d <= 32 && s < 0.99*r.speedup[best] {
					return false
				}
			}
			return best >= 12
		}},
	// The paper's 459 peaks near 29.3 lines; the stand-in's stripes of 29
	// and 30 lines give a local peak at 30 that does not beat next-line.
	{"459.GemsFDTD", "known deviation: next-line (D=1) is the best offset, and D=30 the best from 3 up",
		func(r offsetRow) bool { return r.ranked[0] == 1 && r.bestFrom(3) == 30 }},
}

// TestStandInCards runs every card's stand-in through BestOffset and asserts
// its card. It takes about 1.7 s on 2 vCPUs (18 s under -race).
func TestStandInCards(t *testing.T) {
	r := NewRunner(100_000, []CoreConfig{{Cores: 1, Page: mem.Page4M}})
	r.Benchmarks = nil
	for _, c := range standInCards {
		r.Benchmarks = append(r.Benchmarks, trace.Spec{Name: c.workload})
	}
	tb := r.BestOffset()[0]
	for _, c := range standInCards {
		row := offsetRow{speedup: map[int]float64{}}
		for j, col := range tb.Columns {
			if d, ok := strings.CutPrefix(col, "D="); ok {
				n, _ := strconv.Atoi(d)
				row.speedup[n], _ = tb.Value(c.workload, j)
				row.ranked = append(row.ranked, n)
			}
		}
		slices.SortStableFunc(row.ranked, func(a, b int) int { return cmp.Compare(row.speedup[b], row.speedup[a]) })
		t.Logf("%s: %s", c.workload, row)
		if !c.holds(row) {
			t.Errorf("%s: %q does not hold; %s", c.workload, c.property, row)
		}
	}
}
