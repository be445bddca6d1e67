package uncore

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all"
	"bopsim/internal/stride"
	"bopsim/internal/tlb"
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
// MSHRs) and retries a refused Demand every cycle, as cpu.Core does. Like
// cpu.Core it reports no event while the retry is a stall (DispatchStalled),
// and charges the retries of the cycles it was not run for at its next one.
type frontEnd struct {
	gen     trace.Generator
	inst    trace.Inst
	readyAt uint64
	window  []*dram.Future
	// cycled is the cycle after the latest cycle call (cpu.Core.cycled).
	cycled uint64
	// side, when set, is a second stream that does not wait for the first:
	// every sidePeriod cycles it sends its next memory access and forgets it
	// whatever the answer, as a core's younger loads issue around a stalled
	// one. Between two retries of the main stream's access it is what moves
	// the DTLB1's recency, hits the DL1 and brings L2 hits back to it.
	side trace.Generator
}

const (
	feWindow   = 24
	sidePeriod = 5
)

func newFrontEnd(gen, side trace.Generator) *frontEnd {
	f := &frontEnd{gen: gen, side: side}
	f.fetch(0)
	return f
}

func nextMemOp(gen trace.Generator) (inst trace.Inst, alu uint64) {
	for inst = gen.Next(); inst.Op == trace.OpALU; inst = gen.Next() {
		alu++
	}
	return inst, alu
}

func (f *frontEnd) fetch(now uint64) {
	inst, alu := nextMemOp(f.gen)
	f.inst, f.readyAt = inst, now+alu/4
}

// stalled reports whether all the main stream does this cycle is retry an
// access that is refused again for counters only.
func (f *frontEnd) stalled(m *machine, core int, now uint64) bool {
	return len(f.window) < feWindow && now >= f.readyAt && m.h.DispatchStalled(core, f.inst.PC, f.inst.VA)
}

func (f *frontEnd) nextEvent(m *machine, core int, now uint64) uint64 {
	t := f.readyAt
	if len(f.window) == feWindow {
		if !f.window[0].Resolved() {
			t = never // an uncore event resolves it
		} else {
			t = max(t, f.window[0].Cycle())
		}
	} else if f.stalled(m, core, now) {
		t = never // an uncore event lifts the refusal
	}
	if f.side != nil {
		t = min(t, (now+sidePeriod-1)/sidePeriod*sidePeriod)
	}
	return max(t, now)
}

// demand sends inst to the hierarchy and, once accepted, retires it.
func (m *machine) demand(core int, inst trace.Inst, now uint64) (fut *dram.Future, ok bool) {
	h := m.h
	if m.audit != nil && h.demandRefused(core, inst.PC, inst.VA) {
		m.auditDemandMemo(core, inst.VA, now)
	}
	_, fut, ok = h.Demand(core, inst.PC, inst.VA, inst.Op == trace.OpStore, now)
	if ok {
		h.RetireMemOp(core, inst.PC, inst.VA)
	}
	return fut, ok
}

// settle charges the retries of the cycles before now that cycle was not
// called for (cpu.Core.Settle).
func (f *frontEnd) settle(m *machine, core int, now uint64) {
	if n := now - f.cycled; n > 0 && f.stalled(m, core, f.cycled) {
		m.h.ChargeRefusedDemands(core, f.inst.PC, f.inst.VA, n)
	}
	f.cycled = now
}

func (f *frontEnd) cycle(m *machine, core int, now uint64) {
	f.settle(m, core, now)
	f.cycled = now + 1
	if f.side != nil && now%sidePeriod == 0 {
		inst, _ := nextMemOp(f.side)
		m.demand(core, inst, now)
	}
	for len(f.window) > 0 && f.window[0].DoneBy(now) {
		f.window = f.window[1:]
	}
	if len(f.window) == feWindow || now < f.readyAt {
		return
	}
	fut, ok := m.demand(core, f.inst, now)
	if !ok {
		f.readyAt = now + 1
		return
	}
	if fut != nil {
		f.window = append(f.window, fut)
	}
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
	// audit, when set, makes this the audited machine: every attempt about
	// to be answered from a refusal memo is first checked against the pure
	// predicate the memo stands in for.
	audit *testing.T
	// demandAudits counts auditDemandMemo calls; every tlbAuditEvery-th one
	// also pays for a look inside the DTLB1.
	demandAudits int
}

const (
	injectPeriod  = 7
	tlbAuditEvery = 53
)

// auditDemandMemo checks what a Demand memo hit takes for granted: the access
// misses the DL1, has no MSHR to merge onto and none free, and its page is
// the DTLB1's most recent entry (what RepeatAccess stamps).
func (m *machine) auditDemandMemo(core int, va mem.Addr, now uint64) {
	t, h := m.audit, m.h
	t.Helper()
	line := h.translators[core].TranslateLine(mem.LineOf(va))
	_, merging := h.outstanding[core][line]
	if h.dl1[core].Peek(line) != nil || merging || h.CanAccept(core) {
		t.Fatalf("cycle %d core %d: Demand memo holds for va %#x but DL1 present=%v, MSHR to merge onto=%v, MSHR free=%v",
			now, core, va, h.dl1[core].Peek(line) != nil, merging, h.CanAccept(core))
	}
	if m.demandAudits++; m.demandAudits%tlbAuditEvery != 0 {
		return
	}
	st := h.tlbs[core].SaveState().DTLB1
	mru := slices.Index(st.Stamps, slices.Max(st.Stamps))
	if st.VPNs[mru] != h.cfg.Page.PageOf(va) || st.Stamps[mru] != st.Clock {
		t.Fatalf("cycle %d core %d: Demand memo holds for va %#x (page %#x) but the DTLB1's most recent entry is page %#x, stamp %d at clock %d",
			now, core, va, h.cfg.Page.PageOf(va), st.VPNs[mru], st.Stamps[mru], st.Clock)
	}
}

func (m *machine) nextEvent(now uint64) uint64 {
	ne := m.h.NextEvent(now)
	for c, f := range m.fes {
		ne = min(ne, f.nextEvent(m, c, now))
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
		f.cycle(m, c, now)
	}
}

// stallRow is one configuration of the lock-step test.
type stallRow struct {
	name      string
	workloads []string // one per core
	side      string   // every core's side stream ("" for none), see frontEnd
	l2pf      string
	l1pf      string
	cycles    uint64
	inject    bool
	cfg       func(*Config)
	dram      func(*dram.Params)
	// wantPaths are the refusal paths this row exists to exercise.
	wantPaths []string
	// wantMemos are the refusal memos ("demand", "head", "pref") this row
	// exists to exercise.
	wantMemos []string
}

// build returns a fresh machine of this row, with the refusal memos on or off.
func (r stallRow) build(t *testing.T, memos bool) *machine {
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
	m.h.memoOff = !memos
	for c, w := range r.workloads {
		var side trace.Generator
		if r.side != "" {
			side = trace.MustWorkload(r.side, 3+uint64(c)*104729)
		}
		m.fes = append(m.fes, newFrontEnd(trace.MustWorkload(w, 1+uint64(c)*7919), side))
	}
	return m
}

// deepState is the part of a machine too costly to compare every cycle: each
// TLB level's contents with their stamps, clock and hit counts (the cheap
// fingerprint has only the miss counters) and the DL1 prefetchers' decision
// counts. It is compared every deepEvery cycles and at the end of a row.
type deepState struct {
	TLBs   []tlb.State
	Stride []stride.Stats
}

const deepEvery = 97 // prime: no phase-lock with the bus ratio or injectPeriod

func (m *machine) deep() deepState {
	var d deepState
	for c := range m.h.tlbs {
		d.TLBs = append(d.TLBs, m.h.tlbs[c].SaveState())
		if pf, ok := m.h.l1pf[c].(*stride.Prefetcher); ok {
			d.Stride = append(d.Stride, pf.Stats())
		}
	}
	return d
}

// diff names the cores whose deep state differs.
func (a deepState) diff(b deepState) string {
	var out string
	level := func(c int, name string, x, y tlb.LevelState) {
		if !reflect.DeepEqual(x, y) {
			out += fmt.Sprintf("\n  core %d %s: clock %d hits %d misses %d vs clock %d hits %d misses %d (stamps equal: %v)",
				c, name, x.Clock, x.Hits, x.Misses, y.Clock, y.Hits, y.Misses, slices.Equal(x.Stamps, y.Stamps))
		}
	}
	for c := range a.TLBs {
		level(c, "DTLB1", a.TLBs[c].DTLB1, b.TLBs[c].DTLB1)
		level(c, "TLB2", a.TLBs[c].TLB2, b.TLBs[c].TLB2)
	}
	for c := range a.Stride {
		if a.Stride[c] != b.Stride[c] {
			out += fmt.Sprintf("\n  core %d stride.Stats: %+v vs %+v", c, a.Stride[c], b.Stride[c])
		}
	}
	return out
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
// processDemand. An attempt a refusal memo is about to answer must be one
// the predicate calls blocked (and is then held to the same pure-refusal
// check as any other). Its body must stay a copy of Tick's — the lock-step
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
		if h.headRefused(c, line) && !blocked {
			t.Fatalf("cycle %d core %d: the head memo holds for line %#x but the predicate says the L2 path would take it", now, c, line)
		}
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
		if queued && !h.l2fq[c].full() && h.prefetchRefused(c, line) && !blocked {
			t.Fatalf("cycle %d core %d: the prefetch memo holds for line %#x but the predicate says the L3 path would take it", now, c, line)
		}
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

// TestStallPredicateLockStep holds the stall predicate and the refusal memos
// to the model they summarize. Three machines replay one seeded request
// stream. The audited one ticks every cycle through checkedTick, which checks
// the predicate against what processDemand then actually does and every memo
// hit against the predicate. The plain one ticks every cycle with the memos
// switched off, so every attempt is evaluated in full: it is the oracle for
// the memos, and the two must be indistinguishable at every cycle. The
// skipping one follows NextEvent and AccountIdle exactly as the engine does —
// its front ends sit out their refused retries as cpu.Core does and charge
// them afterwards (DispatchStalled, ChargeRefusedDemands) — and must be
// indistinguishable whenever it ticks. Indistinguishable means
// identical Stats, per-cache counters (cache.Misses is invisible in Result
// JSON), TLB counters, queue occupancies, fill-queue flags, prefetcher call
// counts and DRAM counters; and, every deepEvery cycles and at the end,
// identical TLB contents (stamps, clocks, hit counts) and stride statistics.
func TestStallPredicateLockStep(t *testing.T) {
	rows := []stallRow{
		{name: "1core-mcf-bo", workloads: []string{"429.mcf"}, l2pf: "bo", l1pf: "stride", cycles: 150_000,
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"head"}},
		{name: "4core-thrash", workloads: []string{"429.mcf", "microthrash", "microthrash", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			wantPaths: []string{"l2fq-full", "l3fq-full", "prefetch-blocked"},
			wantMemos: []string{"demand", "head", "pref"}},
		{name: "no-promotion", workloads: []string{"462.libquantum"}, l2pf: "nextline", l1pf: "none", cycles: 60_000,
			cfg:       func(c *Config) { c.LatePromotion = false },
			wantPaths: []string{"no-promotion"}, wantMemos: []string{"head"}},
		{name: "4MB-pages-sbp", workloads: []string{"433.milc", "microthrash"}, l2pf: "sbp", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.Page = mem.Page4M },
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head"}},
		{name: "tiny-queues", workloads: []string{"429.mcf", "microthrash", "470.lbm", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.L2FillQueueLen, c.L3FillQueueLen, c.PrefetchQueueLen = 4, 12, 4 },
			dram:      func(p *dram.Params) { p.ReadQueueLen = 1 },
			wantPaths: []string{"l2fq-full", "l3fq-full", "readq-full", "prefetch-blocked"},
			wantMemos: []string{"demand", "head", "pref"}},
		{name: "tiny-queues-no-promotion", workloads: []string{"462.libquantum", "microthrash"},
			l2pf: "nextline", l1pf: "stride", cycles: 40_000,
			cfg: func(c *Config) {
				c.L2FillQueueLen, c.L3FillQueueLen, c.LatePromotion = 6, 8, false
			},
			dram:      func(p *dram.Params) { p.ReadQueueLen = 2 },
			wantPaths: []string{"no-promotion", "l2fq-full", "readq-full"},
			wantMemos: []string{"demand", "head", "pref"}},
		{name: "second-requester", workloads: []string{"429.mcf", "416.gamess"}, l2pf: "none", l1pf: "none",
			cycles: 60_000, inject: true,
			cfg:       func(c *Config) { c.L2FillQueueLen, c.L3FillQueueLen = 64, 64 },
			dram:      func(p *dram.Params) { p.ReadQueueLen = 1 },
			wantPaths: []string{"readq-full", "readq-full-but-mergeable"}, wantMemos: []string{"head"}},
		// The two rows below exist for version bumps nothing above depends on.
		// Side streams touch each core's DTLB1, DL1 and MSHRs between two
		// retries of a refused access, and L2 hits come back to the DL1 while
		// the MSHRs are full: the front version has to move for all of it.
		{name: "side-streams", workloads: []string{"462.libquantum", "470.lbm"}, side: "453.povray",
			l2pf: "bo", l1pf: "stride", cycles: 60_000,
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head"}},
		// Dirty lines bounce between an L2 and an L3 a few times its size while
		// next-line prefetches of those very lines wait on a 4-entry L3 fill
		// queue: an L2 victim written back is a line the L3 gains.
		{name: "L2-victims-reach-L3", workloads: []string{"gups:footprint=64kb,storepct=100", "microthrash"},
			l2pf: "nextline", l1pf: "none", cycles: 80_000,
			cfg:       func(c *Config) { c.L2Size, c.L3Size, c.L3FillQueueLen = 32<<10, 64<<10, 4 },
			wantPaths: []string{"l3fq-full", "prefetch-blocked"}, wantMemos: []string{"head", "pref"}},
	}
	for _, policy := range []string{"LRU", "DRRIP", "5P"} { // an L3 small enough for the policy to matter
		rows = append(rows, stallRow{name: "L3-" + policy, workloads: []string{"470.lbm", "microthrash"},
			l2pf: "bo", l1pf: "stride", cycles: 40_000,
			cfg:       func(c *Config) { c.L3Policy, c.L3Size = policy, 128<<10 },
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head"}})
	}
	for _, row := range rows {
		t.Run(row.name, row.run)
	}
}

// run replays the row on its three machines (see TestStallPredicateLockStep).
func (row stallRow) run(t *testing.T) {
	oracle, plain, skipper := row.build(t, true), row.build(t, false), row.build(t, true)
	oracle.audit = t
	paths := map[string]int{}
	var oracleNow, now, skipped, stalledSkipped uint64
	var bufA, bufB []uint64
	deepCheck := func(other *machine, what string) {
		if d := oracle.deep().diff(other.deep()); d != "" {
			t.Fatalf("before cycle %d the %s machine differs from the audited one in TLB or stride state; audited vs %s:%s", oracleNow, what, what, d)
		}
	}
	catchUp := func(to uint64) {
		for ; oracleNow < to; oracleNow++ {
			oracle.front(oracleNow)
			oracle.checkedTick(t, oracleNow, paths)
			plain.front(oracleNow)
			plain.h.Tick(oracleNow)
			a, b := oracle.fingerprint(bufA), plain.fingerprint(bufB)
			bufA, bufB = a.v, b.v
			if !a.equal(b) {
				t.Fatalf("after cycle %d the machine without memos differs from the one with; with vs without:%s", oracleNow, a.diff(b))
			}
			if oracleNow%deepEvery == 0 {
				deepCheck(plain, "memo-less")
			}
		}
		for c, f := range skipper.fes {
			f.settle(skipper, c, to) // as the engine settles its cores before it reads counters
		}
		a, b := oracle.fingerprint(bufA), skipper.fingerprint(bufB)
		bufA, bufB = a.v, b.v
		if !a.equal(b) {
			t.Fatalf("before cycle %d the skipping machine differs from the per-cycle one; per-cycle vs skipping:%s", to, a.diff(b))
		}
		if to%deepEvery == 0 {
			deepCheck(skipper, "skipping")
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
	deepCheck(plain, "memo-less")
	deepCheck(skipper, "skipping")
	hits, st := oracle.h.memoHits, oracle.h.stats
	t.Logf("%d cycles, %d skipped, %d of them with a stalled head; refusals by path: %v",
		row.cycles, skipped, stalledSkipped, paths)
	t.Logf("answered from a memo: %d of %d Demand calls, %d of %d demand-head attempts, %d of %d prefetch-head attempts",
		hits.demand, st.DL1Hits+st.DL1Misses, hits.head, st.L2DemandAccesses, hits.pref, hits.prefAttempts)
	if n := plain.h.memoHits; n.demand+n.head+n.pref != 0 {
		t.Errorf("the machine with memos off answered %+v attempts from a memo: it is no oracle", n)
	}
	for _, p := range row.wantPaths {
		if paths[p] == 0 {
			t.Errorf("refusal path %q never fired: this row no longer tests it", p)
		}
	}
	fired := map[string]uint64{"demand": hits.demand, "head": hits.head, "pref": hits.pref}
	for _, m := range row.wantMemos {
		if fired[m] == 0 {
			t.Errorf("the %s memo never answered an attempt: this row no longer tests it", m)
		}
	}
	if stalledSkipped == 0 {
		t.Error("no cycle was skipped over a stalled head: the row does not exercise AccountIdle's charge")
	}
	skippedDemand := skipper.h.memoHits.skippedDemand
	t.Logf("refused Demand replays the skipping machine charged without running their cycle: %d", skippedDemand)
	if slices.Contains(row.wantMemos, "demand") && skippedDemand == 0 {
		t.Error("no cycle was skipped over a core retrying a refused Demand: the row does not exercise ChargeRefusedDemands")
	}
}

// opaqueL1 forwards the prefetch.L1Prefetcher methods and nothing else, so
// the uncore cannot see that the prefetcher behind it is a QueryCharger.
type opaqueL1 struct{ prefetch.L1Prefetcher }

// TestDispatchStalled walks the predicate through each of its conditions on
// one refused access: it holds only for the access the demand memo remembers,
// only while nothing has touched the core's front (an MSHR released), only
// behind a DL1 prefetcher that can be charged (or none), and only while that
// prefetcher's query is settled — a retirement that makes the PC's stride
// confident makes the next replay issue, note its target in the filter and
// probe the TLB2, which no fixed charge covers; that replay settles it again.
// Then the bulk charge is held to the replays it stands for.
func TestDispatchStalled(t *testing.T) {
	const pc, stridePC = 0x400, 0x800
	fill := func(h *Hierarchy) (va mem.Addr) {
		t.Helper()
		for i := 0; i < h.cfg.MSHRs; i++ {
			if _, _, ok := h.Demand(0, pc, mem.Addr(0x100000+i*4096), false, 0); !ok {
				t.Fatalf("access %d refused with %d MSHRs", i, h.cfg.MSHRs)
			}
		}
		va = 0x900000
		if _, _, ok := h.Demand(0, stridePC, va, false, 0); ok {
			t.Fatal("an access past the last MSHR was accepted")
		}
		return va
	}

	h := testHier(prefetch.None{})
	for i := 0; i < confidenceShort; i++ { // one retirement short of a confident stride
		h.RetireMemOp(0, stridePC, mem.Addr(0x800000+i*64))
	}
	va := fill(h)
	if !h.DispatchStalled(0, stridePC, va) {
		t.Fatal("a refused access with an unconfident stride entry is not a stall")
	}
	if h.DispatchStalled(0, stridePC, va+64) || h.DispatchStalled(0, pc, va) {
		t.Error("stalled for an access the memo does not remember")
	}

	twin := testHier(prefetch.None{}) // the same machine, replayed instead of charged
	for i := 0; i < confidenceShort; i++ {
		twin.RetireMemOp(0, stridePC, mem.Addr(0x800000+i*64))
	}
	fill(twin)
	const n = 7
	h.ChargeRefusedDemands(0, stridePC, va, n)
	for i := 0; i < n; i++ {
		if _, _, ok := twin.Demand(0, stridePC, va, false, 0); ok {
			t.Fatal("a replay was accepted")
		}
	}
	got, want := (&machine{h: h}).deep(), (&machine{h: twin}).deep()
	if d := got.diff(want); d != "" || h.stats != twin.stats || h.dl1[0].Misses != twin.dl1[0].Misses {
		t.Errorf("ChargeRefusedDemands(%d) and %d replays differ; charged vs replayed:%s\n  Stats %+v vs %+v, dl1.Misses %d vs %d",
			n, n, d, h.stats, twin.stats, h.dl1[0].Misses, twin.dl1[0].Misses)
	}

	h.RetireMemOp(0, stridePC, mem.Addr(0x800000+confidenceShort*64)) // the stride is confident now
	if h.DispatchStalled(0, stridePC, va) {
		t.Error("stalled although the replay's stride query would issue a prefetch")
	}
	if _, _, ok := h.Demand(0, stridePC, va, false, 0); ok {
		t.Fatal("the replay was accepted")
	}
	if !h.DispatchStalled(0, stridePC, va) {
		t.Error("not stalled after the replay that put the target into the filter")
	}

	for now := uint64(0); len(h.outstanding[0]) == h.cfg.MSHRs; now++ { // until a fill releases an MSHR
		h.Tick(now)
	}
	if h.DispatchStalled(0, stridePC, va) {
		t.Error("stalled although an MSHR has been released since the refusal")
	}

	for _, l1 := range []prefetch.L1Prefetcher{nil, opaqueL1{stride.New()}} {
		h := New(DefaultConfig(1, mem.Page4K), nil, func(int) prefetch.L1Prefetcher { return l1 }, nil)
		va := fill(h)
		if got, want := h.DispatchStalled(0, stridePC, va), l1 == nil; got != want {
			t.Errorf("DL1 prefetcher %T: DispatchStalled = %v, want %v", l1, got, want)
		}
	}
}

// confidenceShort is the number of constant-stride retirements that leaves a
// stride entry one short of full confidence (the first sets the address, the
// second the stride).
const confidenceShort = stride.ConfidenceMax + 1
