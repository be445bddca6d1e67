package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
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
// Readings (seed 1, the six leading offsets and their speedups over
// next-line): 433.milc 256 / 32 / 192 / 96 / 128 / 64, 1.610–1.522; 470.lbm
// 15 / 10 / 25 / 20 / 30 / 50, 1.583–1.441; 462.libquantum 15 / 16 / 18 / 20
// / 12 / 24, 1.409–1.402, and 1.398 or more from 12 to 32; 459.GemsFDTD
// D=1 1.000, D=2 0.946, D=30 0.943. Each card fails on the other three rows.
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
// its card, then that each card fails on the other stand-ins' rows: a card
// that holds on a row it was not written for does not tell its stand-in
// from the rest. It takes about 1.7 s on 2 vCPUs (18 s under -race).
func TestStandInCards(t *testing.T) {
	r := NewRunner(100_000, []CoreConfig{{Cores: 1, Page: mem.Page4M}})
	r.Benchmarks = nil
	for _, c := range standInCards {
		r.Benchmarks = append(r.Benchmarks, trace.Spec{Name: c.workload})
	}
	tb := r.BestOffset()[0]
	rows := map[string]offsetRow{}
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
		rows[c.workload] = row
	}
	for _, c := range standInCards {
		if !c.holds(rows[c.workload]) {
			t.Errorf("%s: %q does not hold; %s", c.workload, c.property, rows[c.workload])
		}
		for _, other := range standInCards {
			if other.workload != c.workload && c.holds(rows[other.workload]) {
				t.Errorf("%s's card %q also holds on %s's row, so it does not tell the stand-ins apart; %s",
					c.workload, c.property, other.workload, rows[other.workload])
			}
		}
	}
}

// The traffic cards' regime. The DRAM-rate card runs a stand-in alone on 1
// core with 4 KB pages, the DL1 stride prefetcher and no L2 prefetcher, for
// trafficWarmup instructions of warmup and then trafficInstructions
// measured. The footprint card reads the first footprintWindow instructions
// of the stand-in's stream, no simulation: long enough for every active
// stand-in to touch more lines than the L3 holds, and for every resident one
// to touch no new line in its second half.
const (
	trafficWarmup       = 500_000
	trafficInstructions = 200_000
	footprintWindow     = 8_000_000
)

// deviation is a card's property that its stand-in does not have: the value
// measured instead, which the card asserts (within 10 %, plus 0.05 for a
// rate near zero), and why the stand-in misses the property.
type deviation struct {
	value float64
	why   string
}

func (d *deviation) matches(v float64) bool {
	return v >= 0.9*d.value-0.05 && v <= 1.1*d.value+0.05
}

// trafficCard states a stand-in's footprint against Table 1's 8 MB L3 and
// its DRAM reads and writes per 1,000 instructions. A memory-active
// stand-in (active, one Figure 13 shows) touches more lines than the L3
// holds, reads DRAM at least quietDRAMPerKI times per 1,000 instructions and
// writes dirty victims back to it; a cache-resident one (the compute Figures
// 5–6 show insensitive to L2 prefetching, which Figure 13 omits) touches at
// most the L3's lines, reads DRAM less often than that and writes nothing
// back. A non-nil footprint (MB of lines touched), reads or writes (per
// 1,000 instructions) is a known deviation.
type trafficCard struct {
	workload                 string
	active                   bool
	footprint, reads, writes *deviation
}

// Why the traffic cards' known deviations miss their property. All but one
// are the regime's: 700,000 instructions from a cold machine are too few for
// the L3 to fill or for a resident stand-in's first pass to end. Step 2 of
// ROADMAP item 26 re-reads them in the converged regime.
const (
	l3NotFull = "no dirty victim has left the L3 yet: the stand-in has read far less than the 8 MB the L3 holds"
	firstPass = "cold misses: its first pass over its lines is not over at the end of the measured region"
	l3Sets    = "its 512-byte jumps touch one line in eight, which index one L3 set in eight (a 4 KB page keeps a line's low six bits), so its chunk lines contend for an eighth of the L3"
)

// trafficCards are the footprint and DRAM-rate cards of all 29 stand-ins.
//
// Readings (seed 1; reads and writes per 1,000 instructions, then MB of
// lines touched, "> 8" once past the L3): 400.perlbench 10.05 / 0 / 1.5;
// 401.bzip2 29.29 / 0 / 3; 403.gcc 89.38 / 0.09 / > 8; 410.bwaves 21.81 / 0
// / > 8; 416.gamess 0 / 0 / 0.125; 429.mcf 54.59 / 0 / > 8; 433.milc 32.41 /
// 0 / > 8; 434.zeusmp 25.03 / 0 / > 8; 435.gromacs 0 / 0 / 0.75;
// 436.cactusADM 24.96 / 0 / 8; 437.leslie3d 43.59 / 0 / > 8; 444.namd 11.02
// / 0 / 1.5; 445.gobmk 0.01 / 0 / 1; 447.dealII 42.86 / 0 / 6; 450.soplex
// 77.34 / 0.015 / > 8; 453.povray 0 / 0 / 0.25; 454.calculix 18.73 / 0 /
// 2.5; 456.hmmer 19.31 / 0 / 1; 458.sjeng 1.88 / 0 / 2; 459.GemsFDTD 24.94 /
// 0 / > 8; 462.libquantum 18.74 / 0 / > 8; 464.h264ref 2.76 / 0 / 1.5;
// 465.tonto 23.18 / 5.73 / 2.5; 470.lbm 32.41 / 0 / > 8; 471.omnetpp 145.66
// / 12.47 / > 8; 473.astar 121.34 / 6.64 / > 8; 481.wrf 25.03 / 0 / > 8;
// 482.sphinx3 20.56 / 0 / > 8; 483.xalancbmk 45.92 / 0.365 / 6.
var trafficCards = []trafficCard{
	{workload: "400.perlbench", reads: &deviation{10.05, firstPass}},
	{workload: "401.bzip2", reads: &deviation{29.285, firstPass}},
	{workload: "403.gcc", active: true},
	{workload: "410.bwaves", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "416.gamess"},
	{workload: "429.mcf", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "433.milc", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "434.zeusmp", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "435.gromacs"},
	{workload: "436.cactusADM", active: true, writes: &deviation{0, l3NotFull},
		footprint: &deviation{8, "its 192-byte jumps touch one line in three of its two 12 MB regions: 8 MB, what the L3 holds and no more"}},
	{workload: "437.leslie3d", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "444.namd", reads: &deviation{11.015, firstPass}},
	{workload: "445.gobmk"},
	{workload: "447.dealII", reads: &deviation{42.855, firstPass}},
	{workload: "450.soplex", active: true},
	{workload: "453.povray"},
	{workload: "454.calculix", reads: &deviation{18.725, firstPass}},
	{workload: "456.hmmer", reads: &deviation{19.305, firstPass}},
	{workload: "458.sjeng"},
	{workload: "459.GemsFDTD", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "462.libquantum", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "464.h264ref", reads: &deviation{2.76, firstPass}},
	{workload: "465.tonto", reads: &deviation{23.18, l3Sets}, writes: &deviation{5.73, l3Sets}},
	{workload: "470.lbm", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "471.omnetpp", active: true},
	{workload: "473.astar", active: true},
	{workload: "481.wrf", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "482.sphinx3", active: true, writes: &deviation{0, l3NotFull}},
	{workload: "483.xalancbmk", reads: &deviation{45.92, firstPass},
		writes: &deviation{0.365, "a few dirty victims leave an L3 its 6 MB fits: most likely random page placement overfills the fullest sets (not measured)"}},
}

// touchedLines returns how many distinct lines g touches in its first n
// instructions and in its first n/2, stopping early, with half 0, once it
// has touched more than limit.
func touchedLines(g trace.Generator, n, limit int) (lines, half int) {
	seen := make(map[mem.LineAddr]struct{})
	for i := 0; i < n; i++ {
		if i == n/2 {
			half = len(seen)
		}
		if in := g.Next(); in.Op != trace.OpALU {
			seen[mem.LineOf(in.VA)] = struct{}{}
			if len(seen) > limit {
				return len(seen), 0
			}
		}
	}
	return len(seen), half
}

// TestTrafficCards asserts every stand-in's footprint and DRAM-rate cards,
// one subtest per stand-in, in parallel. It takes about 4 s on 2 vCPUs.
func TestTrafficCards(t *testing.T) {
	if len(trafficCards) != len(trace.Benchmarks()) {
		t.Fatalf("%d traffic cards for %d stand-ins", len(trafficCards), len(trace.Benchmarks()))
	}
	l3Lines := uncore.DefaultConfig(1, mem.Page4K).L3Size / mem.LineSize
	for _, c := range trafficCards {
		t.Run(c.workload, func(t *testing.T) {
			t.Parallel()
			g, err := trace.NewGenerator(trace.Spec{Name: c.workload}, 1)
			if err != nil {
				t.Fatal(err)
			}
			lines, half := touchedLines(g, footprintWindow, l3Lines)
			mb := float64(lines*mem.LineSize) / (1 << 20)
			holds := lines > l3Lines
			if !c.active {
				holds = lines <= l3Lines && lines == half
			}
			checkCard(t, "footprint", c.footprint, mb, holds,
				fmt.Sprintf("touches %d lines (%.2f MB; %d in the first half)", lines, mb, half))

			o := engine.DefaultOptions(c.workload)
			o.Page = mem.Page4K
			o.L2PF = prefetch.MustSpec("none")
			o.Warmup, o.Instructions = trafficWarmup, trafficInstructions
			r, err := engine.Run(context.Background(), o)
			if err != nil {
				t.Fatal(err)
			}
			reads := float64(r.DRAM.Reads) * 1000 / trafficInstructions
			writes := float64(r.DRAM.Writes) * 1000 / trafficInstructions
			checkCard(t, "reads", c.reads, reads, (reads >= quietDRAMPerKI) == c.active,
				fmt.Sprintf("%.3f DRAM reads per 1,000 instructions", reads))
			checkCard(t, "writes", c.writes, writes, (writes > 0) == c.active,
				fmt.Sprintf("%.3f DRAM writes per 1,000 instructions", writes))
		})
	}
}

// checkCard asserts one card: its class property (holds) unless the card
// records a deviation, and then the deviation's value.
func checkCard(t *testing.T, card string, dev *deviation, v float64, holds bool, measured string) {
	t.Helper()
	t.Logf("%s: %s", card, measured)
	switch {
	case dev == nil && !holds:
		t.Errorf("%s card does not hold: %s", card, measured)
	case dev != nil && !dev.matches(v):
		t.Errorf("%s card records the known deviation %.3f (%s), but %s", card, dev.value, dev.why, measured)
	}
}
