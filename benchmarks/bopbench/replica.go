package main

import (
	"fmt"
	"reflect"
	"time"

	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all" // link every registered prefetcher
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// The traced replica: the benchmark assembles the machine from the layers'
// public constructors exactly as engine.build does, wraps the generators and
// the prefetchers in timing decorators, and drives a copy of
// engine.Simulation.Step with a timer around each call into a layer. It
// handles warmup-less runs only (every single-simulation workload). Every
// traced run asserts that the replica ends on the same cycle, retired count,
// uncore.Stats and dram.Stats as engine.Run; TestReplicaMatchesEngine pins
// the same equality so a change to engine.build or Step that the replica
// does not follow fails a test instead of silently mis-attributing time.

// runQuantum mirrors engine.runQuantum: Run steps in budgets of this many
// cycles and a skip-ahead jump is clamped to the budget.
const runQuantum = 4096

const never = ^uint64(0)

// callClock totals the raw measured time of one kind of call.
type callClock struct{ calls, ns int64 }

func (c *callClock) add(d time.Duration) {
	c.calls++
	c.ns += int64(d)
}

// pfEvent is one call an L2 prefetcher received, captured for the
// standalone replay kernel.
type pfEvent struct {
	fill        bool
	line        mem.LineAddr
	access      prefetch.AccessInfo
	wasPrefetch bool
}

type replica struct {
	opts  engine.Options
	hier  *uncore.Hierarchy
	cores []*cpu.Core
	now   uint64

	// nested totals the decorated calls made inside the Cycle or Tick that
	// is being timed right now; the loop moves it into cycleNested or
	// tickNested so each parent's self time can exclude its children.
	nested                  callClock
	cycleNested, tickNested callClock

	next, l2Access, l2Fill, l1Query, l1Update callClock
	cycle, tick, nextEvent                    callClock
	issued                                    int64

	ticked, skipped, jumps uint64
	vetoCPU, vetoUncore    uint64
	// loopWall excludes the calibration batches interleaved with the loop.
	loopWall time.Duration
	cal      *calibrator

	// capture, when non-nil, receives core 0's L2 prefetcher call stream up
	// to its capacity.
	capture []pfEvent
}

func (r *replica) leaf(c *callClock, d time.Duration) {
	c.add(d)
	r.nested.add(d)
}

type timedGen struct {
	inner trace.Generator
	r     *replica
}

func (g *timedGen) Name() string { return g.inner.Name() }

func (g *timedGen) Next() trace.Inst {
	t0 := time.Now()
	in := g.inner.Next()
	g.r.leaf(&g.r.next, time.Since(t0))
	return in
}

type timedL2 struct {
	inner prefetch.L2Prefetcher
	r     *replica
	core  int
}

func (p *timedL2) Name() string { return p.inner.Name() }

func (p *timedL2) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	t0 := time.Now()
	out := p.inner.OnAccess(a)
	p.r.leaf(&p.r.l2Access, time.Since(t0))
	p.r.issued += int64(len(out))
	if p.core == 0 && len(p.r.capture) < cap(p.r.capture) {
		p.r.capture = append(p.r.capture, pfEvent{access: a})
	}
	return out
}

func (p *timedL2) OnFill(line mem.LineAddr, wasPrefetch bool) {
	t0 := time.Now()
	p.inner.OnFill(line, wasPrefetch)
	p.r.leaf(&p.r.l2Fill, time.Since(t0))
	if p.core == 0 && len(p.r.capture) < cap(p.r.capture) {
		p.r.capture = append(p.r.capture, pfEvent{fill: true, line: line, wasPrefetch: wasPrefetch})
	}
}

// PreIssueTagCheck forwards the wrapped prefetcher's opt-in, so the uncore
// wires the decorated prefetcher exactly as it would the bare one.
func (p *timedL2) PreIssueTagCheck() bool {
	tc, ok := p.inner.(prefetch.PreIssueTagChecker)
	return ok && tc.PreIssueTagCheck()
}

type timedL1 struct {
	inner prefetch.L1Prefetcher
	r     *replica
}

func (p *timedL1) Name() string { return p.inner.Name() }

func (p *timedL1) Query(pc uint64, va mem.Addr) (mem.Addr, bool) {
	t0 := time.Now()
	pva, ok := p.inner.Query(pc, va)
	p.r.leaf(&p.r.l1Query, time.Since(t0))
	return pva, ok
}

func (p *timedL1) Update(pc uint64, va mem.Addr) {
	t0 := time.Now()
	p.inner.Update(pc, va)
	p.r.leaf(&p.r.l1Update, time.Since(t0))
}

// newReplica mirrors engine.build for a run without a warmup region.
// captureCap > 0 records that many of core 0's L2 prefetcher calls.
func newReplica(o engine.Options, captureCap int) (*replica, error) {
	if o.Warmup != 0 {
		return nil, fmt.Errorf("replica: warmup runs are not replicated")
	}
	if o.Cores < 1 || o.Cores > 4 || len(o.Workloads) == 0 || len(o.Workloads) > o.Cores {
		return nil, fmt.Errorf("replica: bad core/workload shape")
	}
	o = o.Normalized()
	if _, err := prefetch.NewL2(o.L2PF, o.Page); err != nil {
		return nil, err
	}
	if _, err := prefetch.NewL1(o.L1PF, o.Page); err != nil {
		return nil, err
	}
	r := &replica{opts: o, cal: newCalibrator()}
	if captureCap > 0 {
		r.capture = make([]pfEvent, 0, captureCap)
	}
	ucfg := uncore.DefaultConfig(o.Cores, o.Page)
	ucfg.L3Policy = o.L3Policy
	ucfg.LatePromotion = o.LatePromote
	ucfg.Seed = o.Seed
	r.hier = uncore.New(ucfg,
		func(core int) prefetch.L2Prefetcher {
			p, _ := prefetch.NewL2(o.L2PF, o.Page)
			return &timedL2{inner: p, r: r, core: core}
		},
		func(int) prefetch.L1Prefetcher {
			p, _ := prefetch.NewL1(o.L1PF, o.Page)
			if p == nil {
				return nil // "none": the uncore must see no DL1 prefetcher at all
			}
			return &timedL1{inner: p, r: r}
		}, nil)
	for i := 0; i < o.Cores; i++ {
		gen, err := trace.NewGenerator(o.Workloads[i], o.Seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		r.cores = append(r.cores, cpu.New(i, o.CPU, r.hier, &timedGen{inner: gen, r: r}))
	}
	return r, nil
}

func (r *replica) done() bool { return r.cores[0].Retired >= r.opts.Instructions }

// nextEventCycle mirrors engine.Simulation.nextEventCycle and also reports
// whether a core (rather than the uncore) was the side that has work now.
func (r *replica) nextEventCycle() (next uint64, cpuNow bool) {
	next = never
	for _, c := range r.cores {
		if t := c.NextEvent(r.now); t < next {
			next = t
			if next <= r.now {
				return r.now, true
			}
		}
	}
	if t := r.hier.NextEvent(r.now); t < next {
		next = t
	}
	if next < r.now {
		return r.now, false
	}
	return next, false
}

// run mirrors engine.Simulation.Run: Step(runQuantum) until done.
func (r *replica) run() error {
	start := time.Now()
	var calWall time.Duration
	defer func() { r.loopWall = time.Since(start) - calWall }()
	wedged := func() error {
		return fmt.Errorf("replica: wedged after %d cycles (%d/%d instructions)", r.now, r.cores[0].Retired, r.opts.Instructions)
	}
	for {
		calWall += r.cal.batch()
		target := r.now + runQuantum
		for r.now < target {
			if r.done() {
				return nil
			}
			t0 := time.Now()
			ne, cpuNow := r.nextEventCycle()
			r.nextEvent.add(time.Since(t0))
			if ne > r.now && ne != never {
				jump := min(ne, target, r.opts.MaxCycles)
				r.hier.AccountIdle(jump - r.now)
				r.skipped += jump - r.now
				r.jumps++
				r.now = jump
				if r.now >= r.opts.MaxCycles && !r.done() {
					return wedged()
				}
				continue
			}
			if cpuNow {
				r.vetoCPU++
			} else {
				r.vetoUncore++
			}
			for _, c := range r.cores {
				r.nested = callClock{}
				t0 := time.Now()
				c.Cycle(r.now)
				r.cycle.add(time.Since(t0))
				r.cycleNested.calls += r.nested.calls
				r.cycleNested.ns += r.nested.ns
			}
			r.nested = callClock{}
			t0 = time.Now()
			r.hier.Tick(r.now)
			r.tick.add(time.Since(t0))
			r.tickNested.calls += r.nested.calls
			r.tickNested.ns += r.nested.ns
			r.now++
			r.ticked++
			if r.now >= r.opts.MaxCycles && !r.done() {
				return wedged()
			}
		}
	}
}

// simStats is the part of engine.Result the replica reproduces.
type simStats struct {
	Cycles       uint64
	Instructions uint64
	Hier         uncore.Stats
	DRAM         dram.Stats
}

func (r *replica) stats() simStats {
	return simStats{Cycles: r.now, Instructions: r.cores[0].Retired,
		Hier: r.hier.Stats(), DRAM: r.hier.Memory().TotalStats()}
}

func statsOf(res engine.Result) simStats {
	return simStats{Cycles: res.Cycles, Instructions: res.Instructions, Hier: res.Hier, DRAM: res.DRAM}
}

func (a simStats) equal(b simStats) bool { return reflect.DeepEqual(a, b) }

// layerTimes are calibrated host nanoseconds per layer for one replica run:
// self times, so they add up to (at most) Loop.
type layerTimes struct {
	Trace, CPU, Uncore, NextEvent float64
	L2Access, L2Fill              float64
	L1Query, L1Update             float64
	// Loop is the loop's wall minus the cost of every timer pair in it.
	Loop float64
}

func (t layerTimes) prefetch() float64 { return t.L2Access + t.L2Fill + t.L1Query + t.L1Update }

func (t layerTimes) accounted() float64 {
	return t.Trace + t.CPU + t.Uncore + t.NextEvent + t.prefetch()
}

// times removes the timer's own cost. A measured interval contains tc.Gap
// of timer overhead; a child call timed inside a parent's interval occupies
// its true time plus a whole pair of clock reads there.
func (r *replica) times() layerTimes {
	tc := r.cal.cost()
	leaf := func(c callClock) float64 { return max(0, float64(c.ns)-float64(c.calls)*tc.Gap) }
	parent := func(c, nested callClock) float64 {
		children := float64(nested.ns) + float64(nested.calls)*(tc.Pair-tc.Gap)
		return max(0, float64(c.ns)-float64(c.calls)*tc.Gap-children)
	}
	timed := r.next.calls + r.l2Access.calls + r.l2Fill.calls + r.l1Query.calls + r.l1Update.calls +
		r.cycle.calls + r.tick.calls + r.nextEvent.calls
	return layerTimes{
		Trace:     leaf(r.next),
		CPU:       parent(r.cycle, r.cycleNested),
		Uncore:    parent(r.tick, r.tickNested),
		NextEvent: leaf(r.nextEvent),
		L2Access:  leaf(r.l2Access),
		L2Fill:    leaf(r.l2Fill),
		L1Query:   leaf(r.l1Query),
		L1Update:  leaf(r.l1Update),
		Loop:      max(1, float64(r.loopWall)-float64(timed)*tc.Pair),
	}
}

// foldSpans records the loop as one span under parent, with the folded
// per-layer children nested as the calls nest: generator and DL1-prefetcher
// calls happen inside Core.Cycle, L2-prefetcher calls inside Hierarchy.Tick.
func (r *replica) foldSpans(rec *recorder, parent, rep int, loopStart, end time.Time) {
	loop := rec.interval("engine.loop", parent, rep, 0, loopStart, end)
	lt := r.times()
	fold := func(name string, under int, c callClock, busy, self float64) int {
		return rec.add(span{Name: name, Parent: under, Rep: rep, StartNS: rec.since(loopStart), EndNS: rec.since(end),
			Calls: c.calls, BusyNS: int64(busy), SelfNS: int64(self)})
	}
	fold("engine.NextEvent", loop, r.nextEvent, lt.NextEvent, lt.NextEvent)
	cycle := fold("cpu.Core.Cycle", loop, r.cycle, lt.CPU+lt.Trace+lt.L1Query+lt.L1Update, lt.CPU)
	fold("trace.Generator.Next", cycle, r.next, lt.Trace, lt.Trace)
	fold("prefetch.L1.Query", cycle, r.l1Query, lt.L1Query, lt.L1Query)
	fold("prefetch.L1.Update", cycle, r.l1Update, lt.L1Update, lt.L1Update)
	tick := fold("uncore.Hierarchy.Tick", loop, r.tick, lt.Uncore+lt.L2Access+lt.L2Fill, lt.Uncore)
	fold("prefetch.L2.OnAccess", tick, r.l2Access, lt.L2Access, lt.L2Access)
	fold("prefetch.L2.OnFill", tick, r.l2Fill, lt.L2Fill, lt.L2Fill)
}
