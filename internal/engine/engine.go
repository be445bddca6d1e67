// Package engine is the simulation engine proper: it owns the run options,
// the assembled machine (cores executing workload generators against the
// shared uncore) and the cycle loop, exposed as a constructed, steppable
// Simulation object rather than a single monolithic run function. Callers
// that just want the final measurements call Run; callers that need
// incremental control — schedulers running thousands of simulations on a
// worker pool, tools sampling mid-run state — construct a Simulation and
// drive it.
//
// Prefetchers are configured through prefetch.Spec and the prefetcher
// registry: the engine never names a concrete prefetcher, so the prefetcher
// zoo grows by registration (see internal/prefetch/all), not by engine
// edits.
//
// The layering (see DESIGN.md) is:
//
//	engine.Simulation   one run: New -> Step/Run(ctx) -> Snapshot -> Close
//	experiments.Runner  scheduler: dedup, worker pool, disk cache
package engine

import (
	"context"
	"errors"
	"fmt"

	"bopsim/internal/core"
	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all" // link every registered prefetcher
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// Options describes one simulation run. The zero values of most fields mean
// "use the baseline default"; Normalized resolves them, and anything keying
// a result cache must hash the normalized form so equivalent spellings of
// the same run share an entry.
type Options struct {
	// Workloads holds one generator spec per core, resolved through the
	// workload registry (see internal/trace's Spec and Register): entry i
	// drives core i, so heterogeneous multi-program runs are expressible
	// directly ("gups:footprint=64mb" on core 0, "stream:stride=128" on
	// core 1). Missing tail entries default to the "microthrash" satellite
	// workload of section 5.1 (Normalized makes that explicit); a recorded
	// trace replay is the registered "file" generator ("file:path=x.trace",
	// keyed by content SHA-256 in caches and on the wire).
	Workloads []trace.Spec
	// Cores is the active core count, 1..4. The paper's baseline
	// configurations use 1, 2 and 4 (what the experiment tables sweep),
	// but the machine model is generic: a 3-program heterogeneous run is
	// just as valid.
	Cores int
	Page  mem.PageSize
	// L2PF selects and parameterizes the per-core L2 prefetcher by
	// registry spec (e.g. "bo", "offset:d=4", "bo:badscore=5"). The zero
	// spec means the baseline next-line prefetcher.
	L2PF prefetch.Spec
	// L1PF selects the DL1 prefetcher the same way. The zero spec means
	// the baseline stride prefetcher; "none" disables DL1 prefetching
	// (Figure 4's ablation).
	L1PF     prefetch.Spec
	L3Policy string // "5P" (default), "LRU", "DRRIP"
	// LatePromote promotes a late prefetch to demand priority (section 5.4;
	// the default). false is an ablation that also charges head-of-line
	// blocking in the L2 demand queue (uncore.Config.LatePromotion).
	LatePromote  bool
	Instructions uint64 // retired instructions on core 0
	Seed         uint64
	CPU          cpu.Config
	// MaxCycles aborts a wedged simulation; 0 means a generous default.
	MaxCycles uint64

	// Warmup, when non-zero, prepends a warmup region to the run: core 0
	// retires this many instructions first, then every core's dispatch is
	// frozen until the whole machine drains dry, all statistics are reset,
	// and the measured region (Instructions more retirements) begins at
	// that barrier. The barrier is where Checkpoint/Restore operate: the
	// drained machine has no in-flight requests, so its state is exactly
	// the warmed caches, TLBs, DRAM rows and generator cursors.
	//
	// The warmup region runs with both prefetchers disabled and the
	// configured ones are installed — cold — at the barrier. That makes the
	// warmup leg independent of the prefetcher specs, which is what lets a
	// sweep share one warmup checkpoint across all its prefetcher variants
	// (see experiments.Runner.Checkpoint).
	Warmup uint64
}

// DefaultOptions returns a 1-core, 4KB-page run of the named workload with
// the baseline prefetchers (next-line at L2, stride at DL1). The argument
// is parsed as a workload spec, so both bare registered names ("429.mcf")
// and parameterized forms ("gups:footprint=64mb") work; "" leaves Workloads
// empty for the caller to fill.
func DefaultOptions(workload string) Options {
	var ws []trace.Spec
	if workload != "" {
		sp, err := trace.ParseSpec(workload)
		if err != nil {
			// Surface the bad name through New's validation, not a panic.
			sp = trace.Spec{Name: workload}
		}
		ws = []trace.Spec{sp}
	}
	return Options{
		Workloads:    ws,
		Cores:        1,
		Page:         mem.Page4K,
		L2PF:         prefetch.Spec{Name: "nextline"},
		L1PF:         prefetch.Spec{Name: "stride"},
		L3Policy:     "5P",
		LatePromote:  true,
		Instructions: 500_000,
		Seed:         1,
		CPU:          cpu.DefaultConfig(),
	}
}

// Normalized returns o with every defaulted zero value resolved to the
// concrete baseline setting and both prefetcher specs in registry-canonical
// form (default-valued parameters dropped), so two spellings of the same
// run compare (and hash) equal. Specs that fail registry validation pass
// through syntactically canonicalized (what Normalize returns next to its
// error); New reports the error.
func (o Options) Normalized() Options {
	// Workload specs: registry-canonical form per entry, with the tail
	// filled out to one spec per core so the satellite default is explicit
	// in everything hashed or shipped from the normalized form. The slice
	// is always reallocated: Options is a value type and callers must be
	// able to mutate the original without aliasing the normalized copy.
	ws := make([]trace.Spec, 0, max(len(o.Workloads), o.Cores))
	for _, w := range o.Workloads {
		w, _ = trace.Normalize(w)
		ws = append(ws, w)
	}
	// Only satellite slots are filled: an empty list stays empty (so
	// workload-less options never hash, sign or cache-key like an explicit
	// microthrash run — New reports the error instead), while a core-0
	// spec's missing tail gets the satellite default.
	for len(ws) > 0 && len(ws) < o.Cores {
		ws = append(ws, trace.Spec{Name: "microthrash"})
	}
	o.Workloads = ws
	if o.Instructions == 0 {
		o.Instructions = 500_000
	}
	if o.CPU.ROBSize == 0 {
		o.CPU = cpu.DefaultConfig()
	}
	if o.L2PF.IsZero() {
		o.L2PF = prefetch.Spec{Name: "nextline"}
	}
	if o.L1PF.IsZero() {
		o.L1PF = prefetch.Spec{Name: "stride"}
	}
	o.L2PF, _ = prefetch.NormalizeL2(o.L2PF)
	o.L1PF, _ = prefetch.NormalizeL1(o.L1PF)
	if o.L3Policy == "" {
		o.L3Policy = "5P"
	}
	if o.MaxCycles == 0 {
		// IPC floor of 1/400 before declaring a wedge, covering the warmup
		// region too.
		o.MaxCycles = (o.Instructions + o.Warmup) * 400
	}
	return o
}

// ModelVersion names the simulated machine's behaviour and the layout of
// everything a run stores: a result's cache key and record
// (experiments.OptionsHash, the .entry header), a snapshot's header and its
// warmup signature, and the version a distrib job and worker advertise. Any
// change that moves a byte of a Result, a snapshot or a golden render — a
// timing fix, a new counter, a field of a serialized struct, a generator's
// stream — bumps it once, and every record and snapshot of an older version
// is then a miss. TestSchemaLock ties it to testdata/model.lock, which
// records everything it governs: the layouts, the digests of the pinned runs
// and snapshot, the result-cache keys, the generators' streams, a kernel
// reading and the SHA-256 of each committed golden render. A moved value
// fails until the constant is bumped and `make schema-lock` renders the
// golden files and rewrites the lock, which it refuses to do at the version
// the lock already records.
const ModelVersion = 18

// Result carries the measurements of one run.
type Result struct {
	Workload     string
	IPC          float64
	Cycles       uint64
	Instructions uint64
	Hier         uncore.Stats
	DRAM         dram.Stats
	// DRAMAccessesPerKI is DRAM reads+writes per 1000 core-0 instructions
	// (Figure 13's metric).
	DRAMAccessesPerKI float64
	// BO holds Best-Offset learning statistics when the L2 prefetcher is
	// "bo".
	BO *core.Stats
	// FinalBOOffset is the offset BO ended the run with (0 otherwise).
	FinalBOOffset int
}

// phase is where the run currently is in its warmup/measure lifecycle.
type phase int

const (
	// phaseWarmup: retiring the warmup region (Warmup instructions).
	phaseWarmup phase = iota
	// phaseDrain: dispatch frozen, in-flight work running dry.
	phaseDrain
	// phaseMeasure: the measured region (Instructions retirements past the
	// barrier marks).
	phaseMeasure
)

// Simulation is one constructed run: the assembled cores and uncore plus
// the clock. It is not safe for concurrent use; run many Simulations in
// parallel instead (they share no state).
type Simulation struct {
	opts  Options
	hier  *uncore.Hierarchy
	cores []*cpu.Core
	now   uint64
	err   error // sticky wedge error
	// wlLabel/wsLabel are the core-0 result label and the per-core log
	// label, computed once in build — options are immutable afterwards, and
	// deriving them per Snapshot/Step would re-run registry normalization.
	wlLabel string
	wsLabel string

	phase phase
	// startCycles/startRetired mark where the measured region began (the
	// warmup barrier; zero for warmupless runs). Snapshot reports deltas
	// from these marks.
	startCycles  uint64
	startRetired uint64
	// atBarrier is true exactly at the warmup barrier: the machine is
	// drained and no measured cycle has executed yet. Checkpoint is only
	// valid then.
	atBarrier bool
	// noSkip disables event-driven skip-ahead (SetSkipAhead), forcing the
	// engine to tick every cycle. Results are byte-identical either way —
	// the equivalence suite asserts it — so this is a verification and
	// debugging switch, deliberately not an Options field: it must not
	// change cache keys, warmup signatures or result hashes.
	noSkip bool
}

// New validates the options and assembles the machine. The returned
// Simulation has executed zero cycles. With Options.Warmup set, the run
// starts in the warmup phase; see RunWarmup and Checkpoint.
func New(o Options) (*Simulation, error) {
	return build(o, false)
}

// build assembles the machine. restored builds directly in the measured
// phase with the configured prefetchers installed (Restore overwrites the
// clock and barrier marks afterwards); otherwise a warmup run starts in
// phaseWarmup, with prefetching disabled.
func build(o Options, restored bool) (*Simulation, error) {
	if o.Cores < 1 || o.Cores > 4 {
		return nil, fmt.Errorf("engine: %d active cores unsupported (want 1..4)", o.Cores)
	}
	// Checked before Normalized, which fills missing entries with the
	// satellite default: a caller who never set a workload must get an
	// error, not a silent microthrash measurement on core 0.
	if len(o.Workloads) == 0 {
		return nil, fmt.Errorf("engine: no workload specs (set Options.Workloads)")
	}
	if len(o.Workloads) > o.Cores {
		return nil, fmt.Errorf("engine: %d workload specs for %d cores", len(o.Workloads), o.Cores)
	}
	o = o.Normalized()
	// Build one prefetcher per level up front so spec errors surface here;
	// construction is deterministic, so the per-core factories below
	// cannot fail after this succeeds.
	if _, err := prefetch.NewL2(o.L2PF, o.Page); err != nil {
		return nil, fmt.Errorf("engine: %v", err)
	}
	if _, err := prefetch.NewL1(o.L1PF, o.Page); err != nil {
		return nil, fmt.Errorf("engine: %v", err)
	}

	ucfg := uncore.DefaultConfig(o.Cores, o.Page)
	ucfg.L3Policy = o.L3Policy
	ucfg.LatePromotion = o.LatePromote
	ucfg.Seed = o.Seed

	l2f, l1f := prefetcherFactories(o)
	if o.Warmup > 0 && !restored {
		// The warmup region runs without prefetching; the barrier installs
		// the configured prefetchers via SetPrefetchers.
		l2f, l1f = nil, nil
	}
	hier := uncore.New(ucfg, l2f, l1f, nil)

	// One generator per core, seeded with the historical per-core derived
	// seed (core 0 gets Options.Seed itself, satellites the staggered
	// seeds the thrasher always used), so legacy single-spec runs are
	// bit-identical to the pre-spec engine.
	var cores []*cpu.Core
	for i := 0; i < o.Cores; i++ {
		gen, err := trace.NewGenerator(o.Workloads[i], o.Seed+uint64(i)*7919)
		if err != nil {
			return nil, fmt.Errorf("engine: core %d workload %s: %w", i, o.Workloads[i], err)
		}
		cores = append(cores, cpu.New(i, o.CPU, hier, gen))
	}
	s := &Simulation{opts: o, hier: hier, cores: cores,
		wlLabel: o.WorkloadLabel(), wsLabel: trace.SpecsLabel(o.Workloads)}
	if o.Warmup > 0 && !restored {
		s.phase = phaseWarmup
	} else {
		s.phase = phaseMeasure
		s.atBarrier = true
	}
	return s, nil
}

// prefetcherFactories returns the per-core constructors for the configured
// (measured-region) prefetchers. Spec validation happened in build, so the
// constructions cannot fail.
func prefetcherFactories(o Options) (func(int) prefetch.L2Prefetcher, func(int) prefetch.L1Prefetcher) {
	return func(int) prefetch.L2Prefetcher {
			p, _ := prefetch.NewL2(o.L2PF, o.Page)
			return p
		},
		func(int) prefetch.L1Prefetcher {
			p, _ := prefetch.NewL1(o.L1PF, o.Page)
			return p
		}
}

// Options returns the normalized options the simulation was built from.
func (s *Simulation) Options() Options { return s.opts }

// WorkloadLabel returns the display name of the measured (core-0)
// workload: the canonical spec string, which for a bare benchmark name is
// the name itself ("429.mcf"). File replays label in hash form
// ("file:sha=…"), never by path: the label lands in Result.Workload, and
// result bytes must not depend on which machine's local path resolved the
// trace (a distrib worker and the coordinator must produce byte-identical
// results, and cache verification re-executes entries locally).
func (o Options) WorkloadLabel() string {
	if len(o.Workloads) == 0 {
		return ""
	}
	sp, _ := trace.Normalize(o.Workloads[0])
	return trace.HashSpec(sp).String()
}

// ConfigLabel names the (cores, page) baseline configuration as the paper
// does ("1-core/4KB", ...).
func (o Options) ConfigLabel() string {
	return fmt.Sprintf("%d-core/%s", o.Cores, o.Page)
}

// WorkloadsLabel renders the whole per-core assignment for logs and status
// lines (trace.SpecsLabel over the normalized specs: canonical strings
// joined by ';', trailing default-thrasher entries trimmed). Callers that
// already hold normalized options can call trace.SpecsLabel directly and
// skip the re-normalization.
func (o Options) WorkloadsLabel() string {
	return trace.SpecsLabel(o.Normalized().Workloads)
}

// Done reports whether core 0 has retired the requested instruction count
// in the measured region (i.e. past the warmup barrier, if any).
func (s *Simulation) Done() bool {
	return s.phase == phaseMeasure && s.cores[0].Retired >= s.startRetired+s.opts.Instructions
}

// Cycles returns the number of cycles executed so far.
func (s *Simulation) Cycles() uint64 { return s.now }

// Retired returns the instructions retired on core 0 so far.
func (s *Simulation) Retired() uint64 { return s.cores[0].Retired }

// SetSkipAhead enables (true, the default) or disables event-driven
// skip-ahead stepping. The simulated machine's behaviour is identical
// either way — skipped cycles are provably no-ops (see DESIGN.md's timing
// model section) and the per-cycle sampled statistics are accounted for
// skipped spans — so disabling it only costs wall-clock time. The switch
// exists for the equivalence test suite and for debugging.
func (s *Simulation) SetSkipAhead(enabled bool) { s.noSkip = !enabled }

// nextEventCycle returns the earliest cycle >= now at which any component
// can make progress (^uint64(0) when none has an event scheduled).
func (s *Simulation) nextEventCycle() uint64 {
	next := ^uint64(0)
	for _, c := range s.cores {
		if t := c.NextEvent(s.now); t < next {
			next = t
			if next <= s.now {
				return s.now
			}
		}
	}
	if t := s.hier.NextEvent(s.now); t < next {
		next = t
	}
	if next < s.now {
		return s.now
	}
	return next
}

// Step advances the simulation by a budget of n cycles, stopping early when
// the run completes or the warmup barrier is reached (so callers can
// intervene there — see Checkpoint). It returns whether the run is done. A
// wedged simulation (MaxCycles exceeded without completing) returns an
// error, and the error is sticky: every later Step and Run reports it
// again.
//
// Stepping is event-driven: when no core, uncore queue or DRAM channel can
// do work this cycle, the clock jumps straight to the earliest upcoming
// event, charging the skipped span to the uncore's per-cycle sampled
// statistics (uncore.Hierarchy.AccountIdle), the one charge a skip owes: a
// stalled dispatch's replay moves nothing, so skipping it is free.
// The skipped cycles would have moved nothing else under per-cycle ticking,
// so results are byte-identical (SetSkipAhead and the skip equivalence suite
// pin this down); a skip consumes its span from the n-cycle budget just as
// ticked cycles do.
func (s *Simulation) Step(n uint64) (done bool, err error) {
	if s.err != nil {
		return false, s.err
	}
	target := s.now + n
	if target < s.now { // overflow: run to the wedge guard
		target = ^uint64(0)
	}
	for s.now < target {
		if s.Done() {
			return true, nil
		}
		if !s.noSkip {
			if ne := s.nextEventCycle(); ne > s.now && ne != ^uint64(0) {
				// No component can do work before cycle ne: jump there.
				// Cycles in [now, ne) are no-ops except for sampled stats.
				// The jump is clamped to the budget and to MaxCycles so the
				// wedge check fires at exactly the cycle the per-cycle
				// engine would report.
				jump := ne
				if target < jump {
					jump = target
				}
				if s.opts.MaxCycles < jump {
					jump = s.opts.MaxCycles
				}
				s.hier.AccountIdle(jump - s.now)
				s.now = jump
				s.atBarrier = false
				if s.wedged() {
					return false, s.err
				}
				continue
			}
		}
		for _, c := range s.cores {
			c.Cycle(s.now)
		}
		s.hier.Tick(s.now)
		s.now++
		s.atBarrier = false
		if s.wedged() {
			return false, s.err
		}
		switch s.phase {
		case phaseWarmup:
			if s.cores[0].Retired >= s.opts.Warmup {
				// Warmup retired: freeze dispatch everywhere and let the
				// machine run dry.
				s.phase = phaseDrain
				for _, c := range s.cores {
					c.SetPaused(true)
				}
			}
		case phaseDrain:
			if s.quiesced() {
				s.barrier()
				// Stop at the barrier: the caller may checkpoint here, and
				// Run simply calls Step again.
				return s.Done(), nil
			}
		}
	}
	return s.Done(), nil
}

// wedged reports whether the clock has reached MaxCycles with the run
// incomplete, and if so records the sticky error.
func (s *Simulation) wedged() bool {
	if s.now < s.opts.MaxCycles || s.Done() {
		return false
	}
	s.err = fmt.Errorf("engine: %s wedged after %d cycles (%d/%d instructions)",
		s.wsLabel, s.now, s.cores[0].Retired, s.startRetired+s.opts.Instructions)
	return true
}

// quiesced reports whether every core's pipeline and the whole uncore are
// empty of in-flight work.
func (s *Simulation) quiesced() bool {
	for _, c := range s.cores {
		if !c.Quiesced() {
			return false
		}
	}
	return s.hier.Drained()
}

// barrier transitions the drained machine into the measured region: the
// dependence anchors are cleared (every load has retired), the configured
// prefetchers are installed, all statistics reset, and the barrier marks are
// recorded. Both the straight path and Restore produce exactly this state,
// which is what makes checkpointed runs byte-identical to uncheckpointed
// ones.
func (s *Simulation) barrier() {
	for _, c := range s.cores {
		c.ClearDepChain()
		c.SetPaused(false)
	}
	s.hier.SetPrefetchers(prefetcherFactories(s.opts))
	s.hier.ResetStats()
	s.phase = phaseMeasure
	s.startCycles = s.now
	s.startRetired = s.cores[0].Retired
	s.atBarrier = true
}

// AtBarrier reports whether the simulation sits exactly at the warmup
// barrier: drained, statistics reset, and no measured cycle executed yet.
// This is the only point Checkpoint accepts.
func (s *Simulation) AtBarrier() bool { return s.atBarrier && s.err == nil }

// RunWarmup drives the simulation to the warmup barrier, checking ctx
// between quanta. It returns immediately for a run without warmup (a fresh
// machine is trivially at its barrier). After it returns, Checkpoint may be
// called, and Run (or Step) continues into the measured region.
func (s *Simulation) RunWarmup(ctx context.Context) error {
	for s.phase != phaseMeasure {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := s.Step(runQuantum); err != nil {
			return err
		}
	}
	return nil
}

// runQuantum is how many cycles Run executes between context checks: small
// enough that cancellation is prompt (well under a millisecond of work),
// large enough that the check cost is invisible.
const runQuantum = 4096

// Run drives the simulation to completion, checking ctx between quanta, and
// returns the final measurements. On cancellation it returns ctx's error;
// the Simulation remains valid and Snapshot still reports the partial run.
func (s *Simulation) Run(ctx context.Context) (Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		done, err := s.Step(runQuantum)
		if err != nil {
			return Result{}, err
		}
		if done {
			return s.Snapshot(), nil
		}
	}
}

// Run builds the simulation o describes and drives it to completion: New
// followed by Simulation.Run, for callers that only want the final
// measurements.
func Run(ctx context.Context, o Options) (Result, error) {
	s, err := New(o)
	if err != nil {
		return Result{}, err
	}
	defer s.Close()
	return s.Run(ctx)
}

// errClosed is the sticky error of a closed Simulation.
var errClosed = errors.New("engine: simulation is closed")

// Close ends the machine's life: its cache arrays go to the free list the
// next simulation's caches are built from (cache.Cache.Close), which is what
// keeps a sweep from building every machine from fresh memory. A reused array
// is cleared, so reuse never moves a simulated byte. Afterwards Step, Run and
// Checkpoint report an error, and Snapshot still reports the measurements.
// Close is idempotent. The caller must own the simulation to its end: a
// closed machine's arrays may already belong to another.
func (s *Simulation) Close() {
	if s.err == errClosed {
		return
	}
	s.err = errClosed
	s.hier.Close()
}

// Snapshot computes the measurements at the current cycle. It is valid at
// any point of the run, including before the first Step and after a
// cancelled Run. With a warmup region, cycles and instructions are deltas
// from the barrier (statistics were reset there), so a warmed run reports
// the measured region only.
func (s *Simulation) Snapshot() Result {
	cycles := s.now - s.startCycles
	retired := s.cores[0].Retired - s.startRetired
	res := Result{
		Workload:     s.wlLabel,
		Cycles:       cycles,
		Instructions: retired,
		Hier:         s.hier.Stats(),
		DRAM:         s.hier.Memory().TotalStats(),
	}
	if cycles > 0 {
		res.IPC = float64(retired) / float64(cycles)
	}
	if retired > 0 {
		res.DRAMAccessesPerKI = float64(res.DRAM.Reads+res.DRAM.Writes) / float64(retired) * 1000
	}
	if bo, ok := s.hier.L2Prefetcher(0).(*core.Prefetcher); ok {
		st := bo.Stats()
		res.BO = &st
		res.FinalBOOffset = bo.Offset()
	}
	return res
}
