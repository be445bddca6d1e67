package main

import (
	"fmt"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// sweepWorkers is Runner.Workers for every sweep. It is fixed, not derived
// from the host, so two machines run the same schedule; the box this
// benchmark was sized on has nproc = 2.
const sweepWorkers = 2

// sweepTargets are the figures every sweep workload renders, in quick mode
// (QuickBenchmarks x QuickConfigs): 144 distinct simulations per render.
var sweepTargets = []string{"fig6", "fig11", "fig12"}

type sweepMode string

const (
	sweepCold         sweepMode = "cold"
	sweepWarm         sweepMode = "warm"
	sweepSharedWarmup sweepMode = "shared-warmup"
)

// workload is one set of inputs. A workload is either a single simulation
// (Bench set) repeated in a closed loop by one goroutine, or a sweep (Mode
// set) rendered repeatedly through experiments.Runner with sweepWorkers
// workers. Instruction counts are frozen: a later change compares against
// numbers measured at exactly these sizes.
type workload struct {
	Name string
	Why  string

	Bench string // core-0 workload spec of a single simulation
	Cores int
	L2    string
	Instr uint64 // measured instructions on core 0 (per simulation for sweeps)

	Mode   sweepMode
	Warmup uint64
	// Rows trims a sweep to the first Rows quick benchmarks; 0 means all 16.
	// Only -smoke sets it.
	Rows int
}

func (w workload) solo() bool { return w.Mode == "" }

var workloads = []workload{
	{
		Name: "solo-compute", Bench: "456.hmmer", Cores: 1, L2: "nextline", Instr: 3_000_000,
		Why: "IPC 3.3, 85% of cycles ticked: cpu.Core.Cycle and trace Next dominate, uncore and DRAM idle; a front-end change shows here, a memory-side one must not",
	},
	{
		Name: "solo-membound", Bench: "429.mcf", Cores: 1, L2: "bo", Instr: 800_000,
		Why: "IPC 0.35, 61% of cycles skipped: skip-ahead, NextEvent, Hierarchy.Tick, DRAM and BO learning do the work here and little on solo-compute",
	},
	{
		Name: "quad-contended", Bench: "429.mcf", Cores: 4, L2: "bo", Instr: 80_000,
		Why: "4 cores with 3 microthrash satellites: no cycle is skippable and Hierarchy.Tick is 57% of the loop; the only workload where uncore batching can show",
	},
	{
		Name: "sweep-cold", Mode: sweepCold, Instr: 25_000,
		Why: "fig6+fig11+fig12 quick into an empty result cache, 144 short simulations per render: construction, allocation, scheduling, parallelism and cache writes",
	},
	{
		Name: "sweep-warm", Mode: sweepWarm, Instr: 25_000,
		Why: "the same render served from the disk cache by a fresh Runner, nothing executes: OptionsHash, cache reads and table assembly; every engine change predicts no change",
	},
	{
		Name: "sweep-shared-warmup", Mode: sweepSharedWarmup, Instr: 10_000, Warmup: 30_000,
		Why: "the same targets forked from shared warmup checkpoints: snapshot save and gob Restore per variant dominate; uses engine through Restore instead of New",
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the workload for -smoke: instruction counts divided by
// div, floored so every simulation still retires something measurable, and
// sweeps trimmed to a quarter of their rows (a sweep's cost at that size is
// per simulation, not per instruction).
func (w workload) scaled(div uint64) workload {
	if div > 1 && !w.solo() {
		w.Rows = 4
	}
	shrink := func(n uint64) uint64 {
		if n == 0 {
			return 0
		}
		return max(n/div, 2_000)
	}
	w.Instr = shrink(w.Instr)
	w.Warmup = shrink(w.Warmup)
	return w
}

// soloOptions generates the single-simulation input from the seed. Only
// these options reach the simulator. Satellite cores get the registry's
// default microthrash workload (Normalized fills them in).
func (w workload) soloOptions(seed uint64) (engine.Options, error) {
	o := engine.DefaultOptions(w.Bench)
	o.Cores = w.Cores
	o.Page = mem.Page4K
	o.Instructions = w.Instr
	o.Seed = seed
	l2, err := prefetch.ParseSpec(w.L2)
	if err != nil {
		return engine.Options{}, err
	}
	o.L2PF = l2
	return o, nil
}

// inputs is everything a measuring child process receives: written by the
// parent during set-up, read by the child before it reports ready.
type inputs struct {
	Workload workload
	Seed     uint64
	Seconds  float64
	Traced   bool
	// Dir is the child's private scratch directory (inside the checkout).
	Dir string
	// Solo is the generated options of a single-simulation workload.
	Solo *engine.Options `json:",omitempty"`
	// CacheDir is the result cache populated during set-up (sweep-warm);
	// ColdDigest is the digest of the bytes that populating render printed,
	// which every warm render must reproduce, and Sims how many results one
	// render delivers.
	CacheDir   string `json:",omitempty"`
	ColdDigest string `json:",omitempty"`
	Sims       int    `json:",omitempty"`
	// KernelScale divides the iteration counts of the standalone kernels
	// (1 normally, 100 under -smoke).
	KernelScale int
	// MinReps is how many timed reps the child makes even when one rep
	// outlasts its share of the run.
	MinReps int
}
