package uncore

import (
	"fmt"
	"slices"
	"testing"

	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all"
	"bopsim/internal/trace"
)

const never = ^uint64(0)

// countingPF counts the calls an L2 prefetcher receives, so a fingerprint
// can tell whether a cycle reached prefetcher state at all.
type countingPF struct {
	prefetch.L2Prefetcher
	accesses, fills uint64
}

func (p *countingPF) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	p.accesses++
	return p.L2Prefetcher.OnAccess(a)
}

func (p *countingPF) OnFill(l mem.LineAddr, wasPrefetch bool) {
	p.fills++
	p.L2Prefetcher.OnFill(l, wasPrefetch)
}

func (p *countingPF) PreIssueTagCheck() bool {
	tc, ok := p.L2Prefetcher.(prefetch.PreIssueTagChecker)
	return ok && tc.PreIssueTagCheck()
}

// frontEnd is a minimal core: it replays the memory instructions of one
// workload against the hierarchy, spaced by the ALU work between them (four
// per cycle), holds at most feWindow loads in flight (a ROB stand-in, so a
// memory-bound stream stalls on its oldest load instead of hammering full
// MSHRs) and retries a refused Demand every cycle, as cpu.Core does.
type frontEnd struct {
	gen     trace.Generator
	inst    trace.Inst
	readyAt uint64
	window  []*dram.Future
}

const feWindow = 24

func newFrontEnd(gen trace.Generator) *frontEnd {
	f := &frontEnd{gen: gen}
	f.fetch(0)
	return f
}

func (f *frontEnd) fetch(now uint64) {
	alu := uint64(0)
	for f.inst = f.gen.Next(); f.inst.Op == trace.OpALU; f.inst = f.gen.Next() {
		alu++
	}
	f.readyAt = now + alu/4
}

func (f *frontEnd) nextEvent(now uint64) uint64 {
	t := f.readyAt
	if len(f.window) == feWindow {
		if !f.window[0].Resolved() {
			return never // an uncore event resolves it
		}
		t = max(t, f.window[0].Cycle())
	}
	return max(t, now)
}

func (f *frontEnd) cycle(h *Hierarchy, core int, now uint64) {
	for len(f.window) > 0 && f.window[0].DoneBy(now) {
		f.window = f.window[1:]
	}
	if len(f.window) == feWindow || now < f.readyAt {
		return
	}
	_, fut, ok := h.Demand(core, f.inst.PC, f.inst.VA, f.inst.Op == trace.OpStore, now)
	if !ok {
		f.readyAt = now + 1
		return
	}
	if fut != nil {
		f.window = append(f.window, fut)
	}
	h.RetireMemOp(core, f.inst.PC, f.inst.VA)
	f.fetch(now + 1)
}

// machine is one hierarchy with its front ends and counting prefetchers.
type machine struct {
	h   *Hierarchy
	fes []*frontEnd
	pfs []*countingPF
	// inject, when set, plays a second requester on the memory bus: every
	// injectPeriod cycles, if core 0's head is blocked on its full DRAM read
	// queue, it queues a read of that very line in core 1's name. That is
	// the one way a read can sit in a DRAM queue with no L3 fill-queue
	// entry, i.e. the only way accessL3 reaches enqueueRead's merge — the
	// read-queue-full-but-mergeable case of the predicate.
	inject bool
}

const injectPeriod = 7

func (m *machine) nextEvent(now uint64) uint64 {
	ne := m.h.NextEvent(now)
	for _, f := range m.fes {
		ne = min(ne, f.nextEvent(now))
	}
	if m.inject {
		ne = min(ne, (now+injectPeriod-1)/injectPeriod*injectPeriod)
	}
	return ne
}

// front runs the core side of cycle now; the caller ticks the hierarchy.
func (m *machine) front(now uint64) {
	if h := m.h; m.inject && now%injectPeriod == 0 && h.demandQ[0].len() > 0 {
		if req := h.demandQ[0].front(); req.readyAt <= now && h.refusalPath(0, req.line) == "readq-full" {
			h.mem.EnqueueRead(req.line, 1, h.futs.Pending())
		}
	}
	for c, f := range m.fes {
		f.cycle(m.h, c, now)
	}
}

// stallRow is one configuration of the lock-step test.
type stallRow struct {
	name      string
	workloads []string // one per core
	l2pf      string
	l1pf      string
	cycles    uint64
	inject    bool
	cfg       func(*Config)
	dram      func(*dram.Params)
	// wantPaths are the refusal paths this row exists to exercise.
	wantPaths []string
}

func (r stallRow) build(t *testing.T) *machine {
	t.Helper()
	cores := len(r.workloads)
	cfg := DefaultConfig(cores, mem.Page4K)
	if r.cfg != nil {
		r.cfg(&cfg)
	}
	p := dram.DefaultParams(cores)
	if r.dram != nil {
		r.dram(&p)
	}
	m := &machine{inject: r.inject}
	m.h = New(cfg,
		func(int) prefetch.L2Prefetcher {
			pf, err := prefetch.NewL2(prefetch.MustSpec(r.l2pf), cfg.Page)
			if err != nil {
				t.Fatal(err)
			}
			c := &countingPF{L2Prefetcher: pf}
			m.pfs = append(m.pfs, c)
			return c
		},
		func(int) prefetch.L1Prefetcher {
			pf, err := prefetch.NewL1(prefetch.MustSpec(r.l1pf), cfg.Page)
			if err != nil {
				t.Fatal(err)
			}
			return pf
		},
		dram.New(p))
	for c, w := range r.workloads {
		m.fes = append(m.fes, newFrontEnd(trace.MustWorkload(w, 1+uint64(c)*7919)))
	}
	return m
}

// fingerprint is everything the test can see of a machine short of cache
// contents: every statistic, every per-cache and TLB counter, every queue
// occupancy, the flags of every fill-queue entry, the prefetchers' call
// counts and DRAM's counters. (Not the entry pool or the future arena: a
// refused attempt borrows from both, and neither is model state.) v has
// perCoreWords words per core, then the shared ones.
type fingerprint struct {
	stats Stats
	v     []uint64
}

const (
	perCoreWords = 21
	wordL2Misses = 5 // index of l2.Misses within a core's block
)

var perCoreLabels = [perCoreWords]string{
	"dl1.Hits", "dl1.Misses", "dl1.Evicts", "dl1.PrefHits",
	"l2.Hits", "l2.Misses", "l2.Evicts", "l2.PrefHits",
	"tlb.Walks", "tlb.DTLB1Misses", "tlb.TLB2Misses",
	"len(demandQ)", "demandQ head line", "len(l2fq)", "l2fq entry flags", "pq.n", "pq.Cancelled",
	"len(outstanding)", "len(dl1Fills)", "l2pf OnAccess calls", "l2pf OnFill calls",
}

var sharedLabels = []string{
	"l3.Hits", "l3.Misses", "l3.Evicts", "l3.PrefHits", "len(l3fq)", "l3fq entry flags",
	"len(pendingWB)", "dram.Reads", "dram.Writes", "dram.RowHits", "dram.RowClosed",
	"dram.RowConflicts", "dram.UrgentReads", "dram.WriteBursts", "dram.MergedReads", "dram idle",
}

func queueFlags(q *fillQueue) uint64 {
	var sum uint64
	b := func(x bool, bit uint) uint64 {
		if x {
			return 1 << bit
		}
		return 0
	}
	for i, e := range q.entries {
		w := uint64(e.line)<<8 | uint64(len(e.waiters))<<5 |
			b(e.isPrefetch, 0) | b(e.promoted, 1) | b(e.fillL1, 2) | b(e.isWrite, 3) | b(e.l1pf, 4)
		sum += w * uint64(2*i+1)
	}
	return sum
}

func (m *machine) fingerprint(dst []uint64) fingerprint {
	h := m.h
	v := dst[:0]
	for c := range h.l2 {
		var head uint64
		if h.demandQ[c].len() > 0 {
			head = uint64(h.demandQ[c].front().line)
		}
		v = append(v,
			h.dl1[c].Hits, h.dl1[c].Misses, h.dl1[c].Evicts, h.dl1[c].PrefHits,
			h.l2[c].Hits, h.l2[c].Misses, h.l2[c].Evicts, h.l2[c].PrefHits,
			h.tlbs[c].Walks, h.tlbs[c].DTLB1Misses(), h.tlbs[c].TLB2Misses(),
			uint64(h.demandQ[c].len()), head, uint64(h.l2fq[c].len()), queueFlags(h.l2fq[c]),
			uint64(h.pq[c].n), h.pq[c].Cancelled,
			uint64(len(h.outstanding[c])), uint64(len(h.dl1Fills[c])), m.pfs[c].accesses, m.pfs[c].fills)
	}
	d := h.mem.TotalStats()
	idle := uint64(0)
	if h.mem.Idle() {
		idle = 1
	}
	v = append(v, h.l3.Hits, h.l3.Misses, h.l3.Evicts, h.l3.PrefHits, uint64(h.l3fq.len()), queueFlags(h.l3fq),
		uint64(len(h.pendingWB)), d.Reads, d.Writes, d.RowHits, d.RowClosed,
		d.RowConflicts, d.UrgentReads, d.WriteBursts, d.MergedReads, idle)
	return fingerprint{stats: h.Stats(), v: v}
}

func (a fingerprint) equal(b fingerprint) bool { return a.stats == b.stats && slices.Equal(a.v, b.v) }

// diff names what differs between two fingerprints of same-shape machines.
func (a fingerprint) diff(b fingerprint) string {
	var out string
	if a.stats != b.stats {
		out += fmt.Sprintf("\n  Stats: %+v\n     vs: %+v", a.stats, b.stats)
	}
	for i := range a.v {
		if a.v[i] == b.v[i] {
			continue
		}
		label := ""
		if shared := i - (len(a.v) - len(sharedLabels)); shared >= 0 {
			label = sharedLabels[shared]
		} else {
			label = fmt.Sprintf("core %d %s", i/perCoreWords, perCoreLabels[i%perCoreWords])
		}
		out += fmt.Sprintf("\n  %s: %d vs %d", label, a.v[i], b.v[i])
	}
	return out
}

// refusalPath names, for reporting only, why the L2 path refuses line (""
// when it does not) and whether it is accepted only thanks to a read-queue
// merge. The verdict the test trusts is processDemand's, not this one.
func (h *Hierarchy) refusalPath(core int, line mem.LineAddr) string {
	if h.l2[core].Peek(line) != nil {
		return ""
	}
	if e := h.l2fq[core].find(line); e != nil {
		if e.isPrefetch && !e.promoted && !h.cfg.LatePromotion {
			return "no-promotion"
		}
		return ""
	}
	switch {
	case h.l2fq[core].full():
		return "l2fq-full"
	case h.l3.Peek(line) != nil || h.l3fq.find(line) != nil:
		return ""
	case h.l3fq.full():
		return "l3fq-full"
	case h.mem.ReadBlocked(line, core):
		return "readq-full"
	// Same channel (the mapping reads byte-address bits 8..16 only), a line
	// nothing ever requests: blocked iff the core's read queue is full.
	case h.mem.ReadBlocked(line|1<<40, core):
		return "readq-full-but-mergeable"
	}
	return ""
}

// checkedTick is Hierarchy.Tick with the stall predicate audited where it
// matters: after this cycle's fills have drained, around each core's
// processDemand. Its body must stay a copy of Tick's — the lock-step
// comparison against a machine that runs the real Tick enforces that.
func (m *machine) checkedTick(t *testing.T, now uint64, paths map[string]int) {
	t.Helper()
	h := m.h
	h.stats.TickSamples++
	h.stats.L2FQOccupancySum += uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += uint64(len(h.outstanding[0]))
	h.stats.PrefQOccupancySum += uint64(h.pq[0].n)
	h.drainL3Fills(now)
	for c := range h.l2fq {
		h.drainL2Fills(c, now)
		h.drainDL1Fills(c, now)
	}
	var bufA, bufB []uint64
	for c := range h.demandQ {
		q := &h.demandQ[c]
		if q.len() == 0 || q.front().readyAt > now {
			h.processDemand(c, now) // a no-op; the lock-step comparison shows it
			continue
		}
		line := q.front().line
		blocked := h.demandBlocked(c, line)
		path := h.refusalPath(c, line)
		before := m.fingerprint(bufA)
		qlen := q.len()
		h.processDemand(c, now)
		after := m.fingerprint(bufB)
		bufA, bufB = before.v, after.v
		if !blocked {
			if q.len() >= qlen {
				t.Fatalf("cycle %d core %d: predicate says line %#x is free (path %q) but processDemand popped nothing", now, c, line, path)
			}
			if path == "readq-full-but-mergeable" {
				paths[path]++
			}
			continue
		}
		paths[path]++
		// One attempt, refused, three counters and nothing else.
		before.stats.L2DemandAccesses++
		before.stats.L2Misses++
		before.v[c*perCoreWords+wordL2Misses]++
		if !after.equal(before) {
			t.Fatalf("cycle %d core %d: predicate says line %#x is blocked (%s) but the attempt was not a pure refusal; got vs want:%s",
				now, c, line, path, after.diff(before))
		}
	}
	for c := range h.pq {
		// Same audit for the prefetch-queue head: refused means untouched.
		line, queued := h.pq[c].front()
		blocked := queued && !h.l2fq[c].full() && h.l3Blocked(line, c)
		if !blocked {
			n := h.pq[c].n
			h.issueQueuedPrefetch(c, now)
			if queued && !h.l2fq[c].full() && h.pq[c].n >= n {
				t.Fatalf("cycle %d core %d: predicate says prefetch %#x can issue but it stayed queued", now, c, line)
			}
			continue
		}
		paths["prefetch-blocked"]++
		before := m.fingerprint(bufA)
		h.issueQueuedPrefetch(c, now)
		after := m.fingerprint(bufB)
		bufA, bufB = before.v, after.v
		if !after.equal(before) {
			t.Fatalf("cycle %d core %d: refused prefetch %#x had side effects; got vs want:%s", now, c, line, after.diff(before))
		}
	}
	h.retryWritebacks(now)
	h.mem.Tick(now)
	if now%h.busRatio == 0 {
		h.futEpoch++
	}
}

// TestStallPredicateLockStep holds the stall predicate to the model it
// summarizes. Two machines replay one seeded request stream: the oracle
// ticks every cycle (through checkedTick, which audits the predicate against
// what processDemand then actually does), the other follows NextEvent and
// AccountIdle exactly as the engine does. Whenever the second one ticks, the
// two must be indistinguishable: identical Stats, per-cache counters
// (cache.Misses is invisible in Result JSON), TLB counters, queue
// occupancies, fill-queue flags, prefetcher call counts and DRAM counters.
func TestStallPredicateLockStep(t *testing.T) {
	rows := []stallRow{
		{name: "1core-mcf-bo", workloads: []string{"429.mcf"}, l2pf: "bo", l1pf: "stride", cycles: 150_000,
			wantPaths: []string{"l2fq-full"}},
		{name: "4core-thrash", workloads: []string{"429.mcf", "microthrash", "microthrash", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			wantPaths: []string{"l2fq-full", "l3fq-full", "prefetch-blocked"}},
		{name: "no-promotion", workloads: []string{"462.libquantum"}, l2pf: "nextline", l1pf: "none", cycles: 60_000,
			cfg:       func(c *Config) { c.LatePromotion = false },
			wantPaths: []string{"no-promotion"}},
		{name: "4MB-pages-sbp", workloads: []string{"433.milc", "microthrash"}, l2pf: "sbp", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.Page = mem.Page4M },
			wantPaths: []string{"l2fq-full"}},
		{name: "tiny-queues", workloads: []string{"429.mcf", "microthrash", "470.lbm", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.L2FillQueueLen, c.L3FillQueueLen, c.PrefetchQueueLen = 4, 12, 4 },
			dram:      func(p *dram.Params) { p.ReadQueueLen = 1 },
			wantPaths: []string{"l2fq-full", "l3fq-full", "readq-full", "prefetch-blocked"}},
		{name: "tiny-queues-no-promotion", workloads: []string{"462.libquantum", "microthrash"},
			l2pf: "nextline", l1pf: "stride", cycles: 40_000,
			cfg: func(c *Config) {
				c.L2FillQueueLen, c.L3FillQueueLen, c.LatePromotion = 6, 8, false
			},
			dram:      func(p *dram.Params) { p.ReadQueueLen = 2 },
			wantPaths: []string{"no-promotion", "l2fq-full", "readq-full"}},
		{name: "second-requester", workloads: []string{"429.mcf", "416.gamess"}, l2pf: "none", l1pf: "none",
			cycles: 60_000, inject: true,
			cfg:       func(c *Config) { c.L2FillQueueLen, c.L3FillQueueLen = 64, 64 },
			dram:      func(p *dram.Params) { p.ReadQueueLen = 1 },
			wantPaths: []string{"readq-full", "readq-full-but-mergeable"}},
	}
	for _, policy := range []string{"LRU", "DRRIP", "5P"} { // an L3 small enough for the policy to matter
		rows = append(rows, stallRow{name: "L3-" + policy, workloads: []string{"470.lbm", "microthrash"},
			l2pf: "bo", l1pf: "stride", cycles: 40_000,
			cfg:       func(c *Config) { c.L3Policy, c.L3Size = policy, 128<<10 },
			wantPaths: []string{"l2fq-full"}})
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			oracle, skipper := row.build(t), row.build(t)
			paths := map[string]int{}
			var oracleNow, now, skipped, stalledSkipped uint64
			var bufA, bufB []uint64
			catchUp := func(to uint64) {
				for ; oracleNow < to; oracleNow++ {
					oracle.front(oracleNow)
					oracle.checkedTick(t, oracleNow, paths)
				}
				a, b := oracle.fingerprint(bufA), skipper.fingerprint(bufB)
				bufA, bufB = a.v, b.v
				if !a.equal(b) {
					t.Fatalf("before cycle %d the skipping machine differs from the per-cycle one; per-cycle vs skipping:%s", to, a.diff(b))
				}
			}
			for now < row.cycles {
				ne := skipper.nextEvent(now)
				if ne == never {
					t.Fatalf("cycle %d: nothing scheduled anywhere, the machine is wedged", now)
				}
				if ne > now {
					span := min(ne, row.cycles) - now
					skipped += span
					if len(skipper.h.stalled) > 0 {
						stalledSkipped += span
					}
					skipper.h.AccountIdle(span)
					now += span
					continue
				}
				catchUp(now)
				skipper.front(now)
				skipper.h.Tick(now)
				now++
			}
			catchUp(row.cycles)
			t.Logf("%d cycles, %d skipped, %d of them with a stalled head; refusals by path: %v",
				row.cycles, skipped, stalledSkipped, paths)
			for _, p := range row.wantPaths {
				if paths[p] == 0 {
					t.Errorf("refusal path %q never fired: this row no longer tests it", p)
				}
			}
			if stalledSkipped == 0 {
				t.Error("no cycle was skipped over a stalled head: the row does not exercise AccountIdle's charge")
			}
		})
	}
}
