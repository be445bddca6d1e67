package experiments

import (
	"slices"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// tinyRunner keeps experiment tests fast: two benchmarks, one config, short
// runs.
func tinyRunner() *Runner {
	r := NewRunner(40_000, []CoreConfig{{Cores: 1, Page: mem.Page4K}})
	r.Benchmarks = []trace.Spec{{Name: "416.gamess"}, {Name: "456.hmmer"}}
	return r
}

// cachedResult returns o's result from r's in-memory cache, failing the
// test if it is not there.
func cachedResult(t *testing.T, r *Runner, o engine.Options) engine.Result {
	t.Helper()
	r.mu.Lock()
	res, ok := r.cache[OptionsHash(o)]
	r.mu.Unlock()
	if !ok {
		t.Fatalf("%s: not cached", describeOptions(o))
	}
	return res
}

func TestAllConfigsShape(t *testing.T) {
	cfgs := AllConfigs()
	if len(cfgs) != 6 {
		t.Fatalf("%d configs, want 6", len(cfgs))
	}
	labels := map[string]bool{}
	for _, c := range cfgs {
		labels[c.Label()] = true
	}
	for _, want := range []string{"1-core/4KB", "2-core/4KB", "4-core/4KB",
		"1-core/4MB", "2-core/4MB", "4-core/4MB"} {
		if !labels[want] {
			t.Errorf("missing config %s", want)
		}
	}
	if len(QuickConfigs()) >= len(cfgs) {
		t.Error("quick configs not a strict subset")
	}
}

func TestTables1And2Render(t *testing.T) {
	if !strings.Contains(Table1(), "DDR3") || !strings.Contains(Table1(), "512KB") {
		t.Error("Table 1 missing expected content")
	}
	tb2 := Table2()
	for _, want := range []string{"SCOREMAX", "31", "ROUNDMAX", "100", "52"} {
		if !strings.Contains(tb2, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestFig2ProducesIPCRows(t *testing.T) {
	r := tinyRunner()
	tb := r.Fig2()
	if len(tb.Rows()) != 2 {
		t.Fatalf("%d rows, want 2", len(tb.Rows()))
	}
	v, ok := tb.Value("416.gamess", 0)
	if !ok || v <= 0 || v > 4 {
		t.Errorf("IPC cell = %v (ok=%v)", v, ok)
	}
}

func TestFig6SpeedupTableHasGM(t *testing.T) {
	r := tinyRunner()
	tb := r.Fig6()
	gm, ok := tb.Value("GM", 0)
	if !ok {
		t.Fatal("no GM row")
	}
	if gm < 0.5 || gm > 2 {
		t.Errorf("GM speedup %v implausible", gm)
	}
}

func TestRunCacheReuse(t *testing.T) {
	r := tinyRunner()
	r.Fig6()
	runsAfterFig6 := len(r.cache)
	r.Fig6() // identical work: fully cached
	if len(r.cache) != runsAfterFig6 {
		t.Errorf("cache grew on repeat: %d -> %d", runsAfterFig6, len(r.cache))
	}
	// Figure 5 shares the baselines with Figure 6: only the no-prefetch
	// variants should be new.
	r.Fig5()
	if got := len(r.cache); got != runsAfterFig6+2 {
		t.Errorf("cache has %d entries after Fig5, want %d", got, runsAfterFig6+2)
	}
}

// TestZooCoversRegistry checks the registry-driven sweep has one row per
// registered L2 prefetcher — including "multi", which exists only via
// registration — and that the baseline rows are exactly 1.0.
func TestZooCoversRegistry(t *testing.T) {
	r := tinyRunner()
	tb := r.Zoo()
	rows := map[string]bool{}
	for _, row := range tb.Rows() {
		rows[row] = true
	}
	for _, want := range []string{"none", "nextline", "offset", "bo", "sbp", "multi"} {
		if !rows[want] {
			t.Errorf("zoo table missing registered prefetcher %q (rows %v)", want, tb.Rows())
		}
	}
	if v, ok := tb.Value("nextline", 0); !ok || v != 1.0 {
		t.Errorf("nextline speedup vs itself = %v, want exactly 1", v)
	}
	if v, ok := tb.Value("multi", 0); !ok || v <= 0 {
		t.Errorf("multi speedup = %v (ok=%v)", v, ok)
	}
	// The sweep schedules through the same cache as the figures: repeating
	// it must execute nothing new.
	executed := r.Executed()
	r.Zoo()
	if r.Executed() != executed {
		t.Error("repeated Zoo re-executed cached simulations")
	}
}

func TestFig8OffsetsSampled(t *testing.T) {
	offs := Fig8Offsets()
	if offs[0] != 2 || offs[len(offs)-1] != 256 {
		t.Errorf("Fig8 offsets span %d..%d, want 2..256", offs[0], offs[len(offs)-1])
	}
	seen := map[int]bool{}
	for _, d := range offs {
		if seen[d] {
			t.Errorf("duplicate offset %d", d)
		}
		seen[d] = true
	}
	if !seen[32] || !seen[160] {
		t.Error("key sweep points missing")
	}
}

// TestBestOffset checks Figure 8 per workload: a table per page size of
// the Runner's configurations, a row per workload plus GM, every fixed
// offset of Table 2 and none as columns, and the last three columns
// derived from the row: best is the largest fixed speedup, BO/best is BO
// over it.
func TestBestOffset(t *testing.T) {
	r := NewRunner(5_000, []CoreConfig{{Cores: 1, Page: mem.Page4K}, {Cores: 2, Page: mem.Page4K}, {Cores: 1, Page: mem.Page4M}})
	r.Benchmarks = []trace.Spec{{Name: "470.lbm"}, {Name: "433.milc"}}
	tables := r.BestOffset()
	if len(tables) != 2 {
		t.Fatalf("%d tables, want one per page size (2)", len(tables))
	}
	for _, tb := range tables {
		if got, want := tb.Rows(), []string{"470.lbm", "433.milc", "GM"}; !slices.Equal(got, want) {
			t.Errorf("%s: rows %v, want %v", tb.Title, got, want)
		}
		fixed := 1 + len(prefetch.DefaultOffsetList())
		if got, want := tb.Columns[fixed:], []string{"BO", "best", "BO/best"}; len(tb.Columns) != fixed+3 || tb.Columns[0] != "none" || !slices.Equal(got, want) {
			t.Fatalf("%s: columns %v", tb.Title, tb.Columns)
		}
		for _, row := range tb.Rows()[:2] {
			vals := make([]float64, len(tb.Columns))
			for j := range vals {
				vals[j], _ = tb.Value(row, j)
			}
			best := slices.Max(vals[:fixed])
			if vals[fixed+1] != best || vals[fixed+2] != vals[fixed]/best {
				t.Errorf("%s, %s: BO %.4f, best %.4f, BO/best %.4f; the fixed columns' largest is %.4f",
					tb.Title, row, vals[fixed], vals[fixed+1], vals[fixed+2], best)
			}
		}
	}
}

func TestFig13FiltersQuietBenchmarks(t *testing.T) {
	r := tinyRunner()
	tb := r.Fig13()
	// Every included row must actually be DRAM-active under the next-line
	// baseline (the filter threshold), and every excluded benchmark quiet.
	included := map[string]bool{}
	for _, row := range tb.Rows() {
		included[row] = true
		v, ok := tb.Value(row, 1) // next-line column
		if !ok || v < 2 {
			t.Errorf("row %s included with next-line traffic %.2f/KI", row, v)
		}
	}
	for _, wl := range r.Benchmarks {
		if included[wl.String()] {
			continue
		}
		o := r.options(wl, CoreConfig{Cores: 1, Page: mem.Page4K})
		res := cachedResult(t, r, o)
		if res.DRAMAccessesPerKI >= 2 {
			t.Errorf("benchmark %s excluded despite %.2f accesses/KI", wl, res.DRAMAccessesPerKI)
		}
	}
}

// TestTargetTablesReturnsJobFailures checks a figure whose simulations fail
// comes back from TargetTables as an error naming the failing run, not as
// the builders' panic.
func TestTargetTablesReturnsJobFailures(t *testing.T) {
	r := tinyRunner()
	r.Benchmarks = []trace.Spec{{Name: "no-such-workload"}}
	tables, err := TargetTables(r, "fig6", true)
	if err == nil || !strings.Contains(err.Error(), "no-such-workload") {
		t.Fatalf("TargetTables error = %v, want one naming no-such-workload", err)
	}
	if tables != nil {
		t.Errorf("TargetTables returned %d tables alongside the error", len(tables))
	}
}
