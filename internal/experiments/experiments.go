// Package experiments regenerates every table and figure of the paper's
// evaluation (sections 5 and 6). Each FigN function runs the simulations
// that figure needs and returns text tables with the same rows (the 29
// benchmarks plus the geometric mean) and series (the baseline
// configurations) the paper plots. Speedups are computed exactly as in the
// paper: IPC relative to the same configuration with the baseline L2
// next-line prefetcher.
//
// The Runner is a scheduler, not a loop: every figure first enumerates the
// simulations it needs, the deduplicated job set runs on a worker pool
// (optionally backed by a persistent on-disk result cache), and the table
// is then assembled serially from the warm cache — so output bytes never
// depend on worker count or interleaving. See scheduler.go and DESIGN.md.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bopsim/internal/core"
	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
	"bopsim/internal/stats"
	"bopsim/internal/stride"
	"bopsim/internal/tlb"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// CoreConfig is one baseline configuration: active core count x page size.
type CoreConfig struct {
	Cores int
	Page  mem.PageSize
}

// Label returns the paper-style configuration name.
func (c CoreConfig) Label() string {
	return engine.Options{Cores: c.Cores, Page: c.Page}.ConfigLabel()
}

// AllConfigs returns the paper's six baseline configurations.
func AllConfigs() []CoreConfig {
	var out []CoreConfig
	for _, page := range []mem.PageSize{mem.Page4K, mem.Page4M} {
		for _, cores := range []int{1, 2, 4} {
			out = append(out, CoreConfig{Cores: cores, Page: page})
		}
	}
	return out
}

// QuickConfigs returns a representative subset for fast regeneration:
// single-core at both page sizes plus the 2-core 4MB configuration where
// the paper's BO gains are largest.
func QuickConfigs() []CoreConfig {
	return []CoreConfig{
		{Cores: 1, Page: mem.Page4K},
		{Cores: 1, Page: mem.Page4M},
		{Cores: 2, Page: mem.Page4M},
	}
}

// Runner schedules and caches simulation runs for the figures.
type Runner struct {
	Instructions uint64
	Seed         uint64
	// Benchmarks is the row set of every figure: one workload spec per
	// row, run on core 0 of each configuration (satellite cores get the
	// registry's "microthrash" default). The default is the paper's 29
	// SPEC stand-ins, but any registered spec works — parameterized
	// ("gups:footprint=64mb"), trace replays ("file:path=x.trace"), or
	// combinators ("mix:gens=stream+pchase").
	Benchmarks []trace.Spec
	Configs    []CoreConfig
	// Log, when non-nil, receives one line per simulation run or cache
	// load (concurrent workers' lines are serialized, but their order
	// follows completion order).
	Log io.Writer
	// Workers bounds the scheduler's worker pool; <= 0 means
	// runtime.GOMAXPROCS(0). Table bytes are identical for any value.
	Workers int
	// Backend, when non-nil, executes scheduled jobs instead of the
	// in-process pool — e.g. a distrib.Pool fanning out to remote
	// boworkerd daemons. Workers is ignored then; the backend sizes its
	// own concurrency. Results are cached identically either way, so
	// table bytes do not depend on where simulations ran.
	Backend ExecBackend
	// CacheDir, when non-empty, persists every result as JSON under this
	// directory (keyed by OptionsHash) and satisfies future runs from it.
	CacheDir string
	// Warmup, when non-zero, gives every scheduled run a warmup region of
	// this many instructions (engine.Options.Warmup): caches, TLBs and
	// DRAM state warm up first, statistics reset at the barrier, and only
	// the measured region is reported.
	Warmup uint64
	// Checkpoint enables warmup sharing: pending jobs are grouped by
	// warmup-equivalence key (WarmupKey — everything that shapes the
	// machine up to the barrier, excluding the swept prefetcher specs),
	// each group's warmup leg runs once and is checkpointed under
	// CheckpointDir, and every variant forks from the snapshot. Results
	// are byte-identical with or without it; it only removes redundant
	// warmup work. Requires Warmup > 0 to have any effect.
	Checkpoint bool
	// CheckpointDir is where warmup snapshots are cached (content-
	// addressed, one .ckpt per warmup group). Empty means a directory
	// named "checkpoints" under CacheDir when that is set; otherwise
	// sharing is off.
	CheckpointDir string
	// Progress, when non-nil, is called after each scheduled job finishes
	// with (completed, total) for the current job set. It is called from
	// worker goroutines and must be safe for concurrent use.
	Progress func(done, total int)

	mu    sync.Mutex
	cache map[string]engine.Result
	// keys memoises OptionsHash per distinct cell (keyOf).
	keys     map[cellPrint][]keyedCell
	logMu    sync.Mutex
	executed atomic.Int64

	statusMu sync.Mutex
	status   ProgressStatus
	running  []slotJob // each status slot's job, formatted by Status
	setStart time.Time
}

// NewRunner returns a Runner with the full benchmark list and the given
// configurations.
func NewRunner(instructions uint64, configs []CoreConfig) *Runner {
	return &Runner{
		Instructions: instructions,
		Seed:         1,
		Benchmarks:   trace.BenchmarkSpecs(),
		Configs:      configs,
		cache:        make(map[string]engine.Result),
		keys:         make(map[cellPrint][]keyedCell),
	}
}

// options builds the default run options for a workload and configuration.
func (r *Runner) options(wl trace.Spec, cc CoreConfig) engine.Options {
	o := engine.DefaultOptions("")
	o.Workloads = []trace.Spec{wl}
	o.Cores = cc.Cores
	o.Page = cc.Page
	o.Instructions = r.Instructions
	o.Seed = r.Seed
	o.Warmup = r.Warmup
	return o
}

// grid is every figure's builder but Fig13's: one row per label in rows,
// one column per label in cols, cell i,j computed by cell, and a GM row
// when gm is set. It enumerates through materialize, so the cells' run
// calls are the figure's job set, in row-major order.
func (r *Runner) grid(title string, rows, cols []string, gm bool, cell func(run runFunc, i, j int) float64) *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		tb := stats.NewTable(title, cols...)
		for i, label := range rows {
			vals := make([]float64, len(cols))
			for j := range cols {
				vals[j] = cell(run, i, j)
			}
			tb.AddRow(label, vals...)
		}
		if gm {
			tb.AddGeoMeanRow()
		}
		return tb
	})
}

// labels returns each element's row or column label.
func labels[T any](xs []T, label func(T) string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = label(x)
	}
	return out
}

// workloadGrid is a grid with one row per workload in wls and one column
// per configuration; cell gets that pair's baseline options.
func (r *Runner) workloadGrid(title string, wls []trace.Spec, gm bool, cell func(run runFunc, o engine.Options) float64) *stats.Table {
	return r.grid(title, labels(wls, trace.Spec.String), labels(r.Configs, CoreConfig.Label), gm,
		func(run runFunc, i, j int) float64 { return cell(run, r.options(wls[i], r.Configs[j])) })
}

// variant derives a figure's configuration under test from its baseline.
type variant func(engine.Options) engine.Options

// l2 is the variant that swaps the L2 prefetcher for s.
func l2(s prefetch.Spec) variant {
	return func(o engine.Options) engine.Options { o.L2PF = s; return o }
}

// speedup runs the baseline o, then v(o), and returns the IPC ratio.
func speedup(run runFunc, o engine.Options, v variant) float64 {
	base := run(o)
	return stats.Speedup(base.IPC, run(v(o)).IPC)
}

// speedupTable builds a per-benchmark table of IPC(variant)/IPC(baseline)
// across all configured CoreConfigs, with a GM row.
func (r *Runner) speedupTable(title string, v variant) *stats.Table {
	return r.workloadGrid(title, r.Benchmarks, true, func(run runFunc, o engine.Options) float64 { return speedup(run, o, v) })
}

// gmTable builds one row per L2 prefetcher in specs (labelled by the same
// index of rows) and one column per configuration; each cell is the GM over
// the benchmarks of that prefetcher's speedup over the baseline.
func (r *Runner) gmTable(title string, rows []string, specs []prefetch.Spec) *stats.Table {
	return r.grid(title, rows, labels(r.Configs, CoreConfig.Label), false, func(run runFunc, i, j int) float64 {
		v := l2(specs[i])
		ratios := make([]float64, len(r.Benchmarks))
		for k, wl := range r.Benchmarks {
			ratios[k] = speedup(run, r.options(wl, r.Configs[j]), v)
		}
		return stats.GeoMean(ratios)
	})
}

// offsetRows returns Figures 7 and 8's rows: BO, then fixed offset d for
// each d in ds.
func offsetRows(ds []int) (rows []string, specs []prefetch.Spec) {
	rows, specs = []string{"BO"}, []prefetch.Spec{{Name: "bo"}}
	for _, d := range ds {
		rows = append(rows, fmt.Sprintf("D=%d", d))
		specs = append(specs, prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d)))
	}
	return rows, specs
}

// Table1 renders the baseline microarchitecture from what the model builds:
// the hierarchy, core and DRAM defaults, the engine's default prefetchers
// and L3 policy, and the constants that fix the rest (the stride
// prefetcher's table, the TLBs, the DRAM geometry and fairness counters).
// Only the prose and the bus width, which no value carries, are literal.
func Table1() string {
	u := uncore.DefaultConfig(1, mem.Page4K)
	c := cpu.DefaultConfig()
	d := dram.DefaultParams(1)
	o := engine.DefaultOptions("")
	var cores, pages []string
	for _, cfg := range AllConfigs() {
		if n := fmt.Sprint(cfg.Cores); !slices.Contains(cores, n) {
			cores = append(cores, n)
		}
		if p := cfg.Page.String(); !slices.Contains(pages, p) {
			pages = append(pages, p)
		}
	}
	size := func(n int) string { return strings.ToUpper(spec.FormatSize(mem.Addr(n))) }
	width := fmt.Sprintf("%d-wide effective dispatch/retire", c.DispatchWidth)
	if c.RetireWidth != c.DispatchWidth {
		width = fmt.Sprintf("%d-wide dispatch, %d-wide retire", c.DispatchWidth, c.RetireWidth)
	}
	l2pf := o.L2PF.Name
	if l2pf == "nextline" { // the registry's name for the paper's next-line
		l2pf = "next-line"
	}
	return fmt.Sprintf(`Table 1: baseline microarchitecture (as modelled)
  cores                      %s active (core 0 measured; others run the
                             cache-thrashing micro-benchmark)
  core model                 %d-entry ROB, %s,
                             dependence-aware load issue, store buffer
  cache line                 %d bytes
  DL1                        %s %d-way LRU, %d-cycle latency, %d MSHRs
  L2 (private)               %s %d-way LRU, %d-cycle latency,
                             %d-entry fill queue
  L3 (shared)                %s %d-way %s, %d-cycle latency,
                             %d-entry fill queue
  TLBs                       DTLB1 %d, TLB2 %d entries
  DL1 prefetch               %s prefetcher, %d entries, distance %d,
                             %d-entry filter, TLB2-gated
  L2 prefetch                %s (baseline), prefetch bits
  memory                     %d channels, 64-bit bus at 1/%d core clock,
                             %d banks/rank, %s row/rank
  DDR3 (bus cycles)          tCL=%d tRCD=%d tRP=%d tRAS=%d tCWL=%d tRTP=%d
                             tWR=%d tWTR=%d tBURST=%d
  memory controller          %d-entry read + %d-entry write queue per core,
                             FR-FCFS, steady/urgent modes, %d-bit proportional
                             counters, write bursts of %d
  page size                  %s
`,
		strings.Join(cores, "/"),
		c.ROBSize, width,
		mem.LineSize,
		size(u.DL1Size), u.DL1Ways, u.DL1Latency, u.MSHRs,
		size(u.L2Size), u.L2Ways, u.L2Latency, u.L2FillQueueLen,
		size(u.L3Size), u.L3Ways, o.L3Policy, u.L3Latency, u.L3FillQueueLen,
		tlb.DTLB1Entries, tlb.TLB2Entries,
		o.L1PF.Name, stride.TableEntries, stride.DistanceFactor, stride.FilterEntries,
		l2pf,
		dram.Channels, d.BusRatio, dram.Banks, size(dram.RowBytes),
		d.TCL, d.TRCD, d.TRP, d.TRAS, d.TCWL, d.TRTP, d.TWR, d.TWTR, d.TBURST,
		d.ReadQueueLen, d.WriteQueueLen, dram.FairnessBits, d.WriteBatch,
		strings.Join(pages, " / "))
}

// Table2 renders the BO prefetcher default parameters.
func Table2() string {
	p := core.DefaultParams()
	return fmt.Sprintf(`Table 2: BO prefetcher default parameters
  RR table entries  %d
  RR tag bits       %d
  SCOREMAX          %d
  ROUNDMAX          %d
  BADSCORE          %d
  scores/offsets    %d (offset list of section 4.2)
`, p.RREntries, p.RRTagBits, p.ScoreMax, p.RoundMax, p.BadScore, len(p.Offsets))
}

// Fig2 reports baseline IPC for every benchmark and configuration.
func (r *Runner) Fig2() *stats.Table {
	return r.workloadGrid("Figure 2: baseline IPC (core 0)", r.Benchmarks, false,
		func(run runFunc, o engine.Options) float64 { return run(o).IPC })
}

// Fig3 reports the impact of replacing the 5P L3 policy with LRU and with
// DRRIP (4KB pages in the paper).
func (r *Runner) Fig3() []*stats.Table {
	var out []*stats.Table
	for _, pol := range []string{"LRU", "DRRIP"} {
		out = append(out, r.speedupTable(
			fmt.Sprintf("Figure 3: L3 replacement %s vs 5P baseline", pol),
			func(o engine.Options) engine.Options { o.L3Policy = pol; return o }))
	}
	return out
}

// Fig4 reports the impact of disabling the DL1 stride prefetcher.
func (r *Runner) Fig4() *stats.Table {
	return r.speedupTable("Figure 4: DL1 stride prefetcher disabled (vs baseline)",
		func(o engine.Options) engine.Options { o.L1PF = prefetch.Spec{Name: "none"}; return o })
}

// Fig5 reports the impact of disabling the L2 next-line prefetcher.
func (r *Runner) Fig5() *stats.Table {
	return r.speedupTable("Figure 5: L2 next-line prefetcher disabled (vs baseline)", l2(prefetch.Spec{Name: "none"}))
}

// Fig6 reports BO prefetcher speedup relative to next-line.
func (r *Runner) Fig6() *stats.Table {
	return r.speedupTable("Figure 6: BO prefetcher speedup (vs next-line baseline)", l2(prefetch.Spec{Name: "bo"}))
}

// Fig7 compares BO against fixed offsets 2..7 (geometric means only, as in
// the paper).
func (r *Runner) Fig7() *stats.Table {
	rows, specs := offsetRows([]int{2, 3, 4, 5, 6, 7})
	return r.gmTable("Figure 7: BO vs fixed-offset prefetching (GM speedup)", rows, specs)
}

// Fig8Offsets is the default offset sample for the fixed-offset sweep.
func Fig8Offsets() []int {
	var out []int
	for d := 2; d <= 32; d += 2 {
		out = append(out, d)
	}
	for d := 36; d <= 64; d += 4 {
		out = append(out, d)
	}
	for d := 72; d <= 256; d += 8 {
		out = append(out, d)
	}
	return out
}

// Fig8 sweeps fixed offsets on the four benchmarks of Figure 8 (4MB pages,
// 1 core), with the BO prefetcher's speedup as a reference row.
func (r *Runner) Fig8(offsets []int) *stats.Table {
	if offsets == nil {
		offsets = Fig8Offsets()
	}
	benchmarks := []trace.Spec{{Name: "433.milc"}, {Name: "459.GemsFDTD"}, {Name: "470.lbm"}, {Name: "462.libquantum"}}
	cc := CoreConfig{Cores: 1, Page: mem.Page4M}
	rows, specs := offsetRows(offsets)
	return r.grid("Figure 8: fixed-offset sweep, 4MB pages, 1 core (speedup vs next-line)",
		rows, labels(benchmarks, trace.Spec.String), false,
		func(run runFunc, i, j int) float64 { return speedup(run, r.options(benchmarks[j], cc), l2(specs[i])) })
}

// BestOffset is Figure 8 per workload: BO against its oracle, the best
// fixed offset for each workload of r.Benchmarks. It renders one table per
// page size of r.Configs, 1 core, a row per workload and a GM row; the
// columns sweep none and Table 2's 52 offsets (speedups vs next-line), then
// give BO's speedup, the best of the fixed ones and BO over best.
func (r *Runner) BestOffset() []*stats.Table {
	cols := []string{"none"}
	variants := []variant{l2(prefetch.Spec{Name: "none"})}
	for _, d := range prefetch.DefaultOffsetList() {
		cols = append(cols, fmt.Sprintf("D=%d", d))
		variants = append(variants, l2(prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d))))
	}
	fixed := len(variants)
	cols = append(cols, "BO", "best", "BO/best")
	variants = append(variants, l2(prefetch.Spec{Name: "bo"}))
	var tables []*stats.Table
	var pages []mem.PageSize
	for _, c := range r.Configs {
		if slices.Contains(pages, c.Page) {
			continue
		}
		pages = append(pages, c.Page)
		cc := CoreConfig{Cores: 1, Page: c.Page}
		sp := make([]float64, len(variants)) // the row's speedups so far: grid asks in column order
		tables = append(tables, r.grid(fmt.Sprintf("Figure 8 per workload: BO vs every fixed offset, %s (speedup vs next-line)", cc.Label()),
			labels(r.Benchmarks, trace.Spec.String), cols, true, func(run runFunc, i, j int) float64 {
				if j < len(variants) {
					sp[j] = speedup(run, r.options(r.Benchmarks[i], cc), variants[j])
					return sp[j]
				}
				best := slices.Max(sp[:fixed])
				if j == len(variants) {
					return best
				}
				return sp[fixed] / best
			}))
	}
	return tables
}

// Fig9 sweeps the BADSCORE throttling threshold (GM speedups).
func (r *Runner) Fig9() *stats.Table {
	return r.boParamSweep("Figure 9: impact of BADSCORE (GM speedup vs next-line)",
		[]int{0, 1, 2, 5, 10}, "badscore", "BADSCORE=%d")
}

// Fig10 sweeps the RR table size (GM speedups).
func (r *Runner) Fig10() *stats.Table {
	return r.boParamSweep("Figure 10: impact of RR table size (GM speedup vs next-line)",
		[]int{32, 64, 128, 256, 512}, "rr", "RR=%d")
}

// boParamSweep sweeps one registered "bo" spec parameter across values —
// the parameter sweeps of Figures 9 and 10 are just spec variants now.
func (r *Runner) boParamSweep(title string, values []int, param string, labelFmt string) *stats.Table {
	rows := make([]string, len(values))
	specs := make([]prefetch.Spec, len(values))
	for i, v := range values {
		rows[i] = fmt.Sprintf(labelFmt, v)
		specs[i] = prefetch.Spec{Name: "bo"}.With(param, fmt.Sprint(v))
	}
	return r.gmTable(title, rows, specs)
}

// Fig11 compares BO and SBP geometric-mean speedups over the baseline.
func (r *Runner) Fig11() *stats.Table {
	specs := []prefetch.Spec{{Name: "bo"}, {Name: "sbp"}}
	return r.gmTable("Figure 11: BO vs SBP (GM speedup vs next-line baseline)", labels(specs, prefetch.Spec.String), specs)
}

// Fig12 reports per-benchmark BO speedup relative to SBP.
func (r *Runner) Fig12() *stats.Table {
	sbp, bo := l2(prefetch.Spec{Name: "sbp"}), l2(prefetch.Spec{Name: "bo"})
	return r.workloadGrid("Figure 12: BO speedup relative to SBP", r.Benchmarks, true,
		func(run runFunc, o engine.Options) float64 { return speedup(run, sbp(o), bo) })
}

// quietDRAMPerKI is the DRAM accesses per 1,000 instructions below which
// Figure 13 omits a benchmark: it accesses DRAM too rarely to show.
const quietDRAMPerKI = 2

// Fig13 reports DRAM accesses per kilo-instruction (4KB pages, 1 core) for
// no-prefetch, next-line, BO and SBP, on the memory-active benchmarks.
func (r *Runner) Fig13() *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cc := CoreConfig{Cores: 1, Page: mem.Page4K}
		specs := []prefetch.Spec{{Name: "none"}, {Name: "nextline"}, {Name: "bo"}, {Name: "sbp"}}
		tb := stats.NewTable("Figure 13: DRAM accesses per 1000 instructions (4KB, 1 core)", labels(specs, prefetch.Spec.String)...)
		type entry struct {
			wl  string
			row []float64
		}
		var entries []entry
		for _, wl := range r.Benchmarks {
			row := make([]float64, len(specs))
			for i, s := range specs {
				o := r.options(wl, cc)
				o.L2PF = s
				row[i] = run(o).DRAMAccessesPerKI
			}
			// The paper omits benchmarks that access DRAM infrequently.
			if row[1] >= quietDRAMPerKI {
				entries = append(entries, entry{wl.String(), row})
			}
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].wl < entries[j].wl })
		for _, e := range entries {
			tb.AddRow(e.wl, e.row...)
		}
		return tb
	})
}

// Zoo is the registry-driven ablation sweep: one row per *registered* L2
// prefetcher (default parameters), GM speedup over the next-line baseline
// across the configured CoreConfigs. Because the row set comes from
// prefetch.L2Names, a prefetcher added by registration alone — e.g.
// internal/multi — shows up here, scheduled and cached like every paper
// figure, with no engine or scheduler change.
func (r *Runner) Zoo() *stats.Table {
	names := prefetch.L2Names()
	specs := make([]prefetch.Spec, len(names))
	for i, name := range names {
		specs[i] = prefetch.Spec{Name: name}
	}
	return r.gmTable("Prefetcher zoo: registered L2 prefetchers (GM speedup vs next-line)", names, specs)
}

// WorkloadZoo is Zoo's mirror on the workload axis: one row per
// *registered* workload generator (default parameters), reporting the BO
// prefetcher's speedup over the next-line baseline across the configured
// CoreConfigs. Because the row set comes from trace.Names, a generator
// added by registration alone shows up here — scheduled and cached like
// every paper figure — with no scheduler change. Generators that need
// parameters to exist at all (like "file", whose default spec names no
// trace) are skipped.
func (r *Runner) WorkloadZoo() *stats.Table {
	var rows []trace.Spec
	for _, name := range trace.Names() {
		spec := trace.Spec{Name: name}
		if _, err := trace.Normalize(spec); err != nil {
			continue // not buildable with defaults (e.g. "file")
		}
		rows = append(rows, spec)
	}
	bo := l2(prefetch.Spec{Name: "bo"})
	return r.workloadGrid("Workload zoo: registered generators (BO speedup vs next-line)", rows, false,
		func(run runFunc, o engine.Options) float64 { return speedup(run, o, bo) })
}
