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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bopsim/internal/core"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
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
	// MaxErrors bounds how many job failures RunJobs accumulates before
	// it stops dispatching further jobs; <= 0 means a default of 16. The
	// returned error joins every collected failure.
	MaxErrors int
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
	// named "checkpoints" under CacheDir, or a temporary one when CacheDir
	// is empty too.
	CheckpointDir string
	// Progress, when non-nil, is called after each scheduled job finishes
	// with (completed, total) for the current job set. It is called from
	// worker goroutines and must be safe for concurrent use.
	Progress func(done, total int)

	mu       sync.Mutex
	cache    map[string]engine.Result
	logMu    sync.Mutex
	executed atomic.Int64

	// ckptTmp is the lazily created private fallback snapshot directory
	// (see checkpointDir).
	ckptTmpOnce sync.Once
	ckptTmp     string

	statusMu sync.Mutex
	status   ProgressStatus
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

// speedupTable builds a per-benchmark table of IPC(variant)/IPC(baseline)
// across all configured CoreConfigs, with a GM row.
func (r *Runner) speedupTable(title string, variant func(o engine.Options) engine.Options) *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable(title, cols...)
		for _, wl := range r.Benchmarks {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				base := run(r.options(wl, cc))
				v := run(variant(r.options(wl, cc)))
				row[i] = stats.Speedup(base.IPC, v.IPC)
			}
			tb.AddRow(wl.String(), row...)
		}
		tb.AddGeoMeanRow()
		return tb
	})
}

// Table1 renders the baseline microarchitecture parameters.
func Table1() string {
	return `Table 1: baseline microarchitecture (as modelled)
  cores                      1/2/4 active (core 0 measured; others run the
                             cache-thrashing micro-benchmark)
  core model                 256-entry ROB, 4-wide effective dispatch/retire,
                             dependence-aware load issue, store buffer
  cache line                 64 bytes
  DL1                        32KB 8-way LRU, 3-cycle latency, 32 MSHRs
  L2 (private)               512KB 8-way LRU, 11-cycle latency,
                             16-entry fill queue
  L3 (shared)                8MB 16-way 5P, 21-cycle latency,
                             32-entry fill queue
  TLBs                       DTLB1 64, TLB2 512 entries
  DL1 prefetch               stride prefetcher, 64 entries, distance 16,
                             16-entry filter, TLB2-gated
  L2 prefetch                next-line (baseline), prefetch bits
  memory                     2 channels, 64-bit bus at 1/4 core clock,
                             8 banks/rank, 8KB row/rank
  DDR3 (bus cycles)          tCL=11 tRCD=11 tRP=11 tRAS=33 tCWL=8 tRTP=6
                             tWR=12 tWTR=6 tBURST=4
  memory controller          32-entry read + 32-entry write queue per core,
                             FR-FCFS, steady/urgent modes, 7-bit proportional
                             counters, write bursts of 16
  page size                  4KB / 4MB
`
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
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Figure 2: baseline IPC (core 0)", cols...)
		for _, wl := range r.Benchmarks {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				row[i] = run(r.options(wl, cc)).IPC
			}
			tb.AddRow(wl.String(), row...)
		}
		return tb
	})
}

// Fig3 reports the impact of replacing the 5P L3 policy with LRU and with
// DRRIP (4KB pages in the paper).
func (r *Runner) Fig3() []*stats.Table {
	var out []*stats.Table
	for _, pol := range []string{"LRU", "DRRIP"} {
		pol := pol
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
	return r.speedupTable("Figure 5: L2 next-line prefetcher disabled (vs baseline)",
		func(o engine.Options) engine.Options { o.L2PF = prefetch.Spec{Name: "none"}; return o })
}

// Fig6 reports BO prefetcher speedup relative to next-line.
func (r *Runner) Fig6() *stats.Table {
	return r.speedupTable("Figure 6: BO prefetcher speedup (vs next-line baseline)",
		func(o engine.Options) engine.Options { o.L2PF = prefetch.Spec{Name: "bo"}; return o })
}

// Fig7 compares BO against fixed offsets 2..7 (geometric means only, as in
// the paper).
func (r *Runner) Fig7() *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Figure 7: BO vs fixed-offset prefetching (GM speedup)", cols...)
		addRow := func(label string, variant func(o engine.Options) engine.Options) {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				ratios := make([]float64, 0, len(r.Benchmarks))
				for _, wl := range r.Benchmarks {
					base := run(r.options(wl, cc))
					v := run(variant(r.options(wl, cc)))
					ratios = append(ratios, stats.Speedup(base.IPC, v.IPC))
				}
				row[i] = stats.GeoMean(ratios)
			}
			tb.AddRow(label, row...)
		}
		addRow("BO", func(o engine.Options) engine.Options { o.L2PF = prefetch.Spec{Name: "bo"}; return o })
		for d := 2; d <= 7; d++ {
			d := d
			addRow(fmt.Sprintf("D=%d", d), func(o engine.Options) engine.Options {
				o.L2PF = prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d))
				return o
			})
		}
		return tb
	})
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
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(benchmarks))
		for i, b := range benchmarks {
			cols[i] = b.String()
		}
		tb := stats.NewTable("Figure 8: fixed-offset sweep, 4MB pages, 1 core (speedup vs next-line)", cols...)
		boRow := make([]float64, len(benchmarks))
		for i, wl := range benchmarks {
			base := run(r.options(wl, cc))
			o := r.options(wl, cc)
			o.L2PF = prefetch.Spec{Name: "bo"}
			boRow[i] = stats.Speedup(base.IPC, run(o).IPC)
		}
		tb.AddRow("BO", boRow...)
		for _, d := range offsets {
			row := make([]float64, len(benchmarks))
			for i, wl := range benchmarks {
				base := run(r.options(wl, cc))
				o := r.options(wl, cc)
				o.L2PF = prefetch.Spec{Name: "offset"}.With("d", fmt.Sprint(d))
				row[i] = stats.Speedup(base.IPC, run(o).IPC)
			}
			tb.AddRow(fmt.Sprintf("D=%d", d), row...)
		}
		return tb
	})
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
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable(title, cols...)
		for _, v := range values {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				ratios := make([]float64, 0, len(r.Benchmarks))
				for _, wl := range r.Benchmarks {
					base := run(r.options(wl, cc))
					o := r.options(wl, cc)
					o.L2PF = prefetch.Spec{Name: "bo"}.With(param, fmt.Sprint(v))
					ratios = append(ratios, stats.Speedup(base.IPC, run(o).IPC))
				}
				row[i] = stats.GeoMean(ratios)
			}
			tb.AddRow(fmt.Sprintf(labelFmt, v), row...)
		}
		return tb
	})
}

// Fig11 compares BO and SBP geometric-mean speedups over the baseline.
func (r *Runner) Fig11() *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Figure 11: BO vs SBP (GM speedup vs next-line baseline)", cols...)
		for _, spec := range []prefetch.Spec{{Name: "bo"}, {Name: "sbp"}} {
			spec := spec
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				ratios := make([]float64, 0, len(r.Benchmarks))
				for _, wl := range r.Benchmarks {
					base := run(r.options(wl, cc))
					o := r.options(wl, cc)
					o.L2PF = spec
					ratios = append(ratios, stats.Speedup(base.IPC, run(o).IPC))
				}
				row[i] = stats.GeoMean(ratios)
			}
			tb.AddRow(spec.String(), row...)
		}
		return tb
	})
}

// Fig12 reports per-benchmark BO speedup relative to SBP.
func (r *Runner) Fig12() *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Figure 12: BO speedup relative to SBP", cols...)
		for _, wl := range r.Benchmarks {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				oBO := r.options(wl, cc)
				oBO.L2PF = prefetch.Spec{Name: "bo"}
				oSBP := r.options(wl, cc)
				oSBP.L2PF = prefetch.Spec{Name: "sbp"}
				row[i] = stats.Speedup(run(oSBP).IPC, run(oBO).IPC)
			}
			tb.AddRow(wl.String(), row...)
		}
		tb.AddGeoMeanRow()
		return tb
	})
}

// Fig13 reports DRAM accesses per kilo-instruction (4KB pages, 1 core) for
// no-prefetch, next-line, BO and SBP, on the memory-active benchmarks.
func (r *Runner) Fig13() *stats.Table {
	return r.materialize(func(run runFunc) *stats.Table {
		cc := CoreConfig{Cores: 1, Page: mem.Page4K}
		specs := []prefetch.Spec{{Name: "none"}, {Name: "nextline"}, {Name: "bo"}, {Name: "sbp"}}
		cols := make([]string, len(specs))
		for i, s := range specs {
			cols[i] = s.String()
		}
		tb := stats.NewTable("Figure 13: DRAM accesses per 1000 instructions (4KB, 1 core)", cols...)
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
			if row[1] >= 2 {
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
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Prefetcher zoo: registered L2 prefetchers (GM speedup vs next-line)", cols...)
		for _, name := range prefetch.L2Names() {
			spec := prefetch.Spec{Name: name}
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				ratios := make([]float64, 0, len(r.Benchmarks))
				for _, wl := range r.Benchmarks {
					base := run(r.options(wl, cc))
					o := r.options(wl, cc)
					o.L2PF = spec
					ratios = append(ratios, stats.Speedup(base.IPC, run(o).IPC))
				}
				row[i] = stats.GeoMean(ratios)
			}
			tb.AddRow(name, row...)
		}
		return tb
	})
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
	return r.materialize(func(run runFunc) *stats.Table {
		cols := make([]string, len(r.Configs))
		for i, cc := range r.Configs {
			cols[i] = cc.Label()
		}
		tb := stats.NewTable("Workload zoo: registered generators (BO speedup vs next-line)", cols...)
		for _, wl := range rows {
			row := make([]float64, len(r.Configs))
			for i, cc := range r.Configs {
				base := run(r.options(wl, cc))
				o := r.options(wl, cc)
				o.L2PF = prefetch.Spec{Name: "bo"}
				row[i] = stats.Speedup(base.IPC, run(o).IPC)
			}
			tb.AddRow(wl.String(), row...)
		}
		return tb
	})
}
