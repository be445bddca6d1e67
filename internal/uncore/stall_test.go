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
// cpu.Core it reports no event while the retry is a stall (DispatchStalled);
// a skipped retry moves nothing, so there is nothing to settle afterwards.
// An access retires as it is accepted; window holds the completion Demand
// hands it until it is done.
type frontEnd struct {
	gen     trace.Generator
	inst    trace.Inst
	readyAt uint64
	window  []*Completion
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
// access that is refused again and moves nothing.
func (f *frontEnd) stalled(m *machine, core int, now uint64) bool {
	return len(f.window) < feWindow && now >= f.readyAt && m.h.DispatchStalled(core, f.inst.VA)
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

// demand sends inst to the hierarchy; the caller retires it once accepted,
// and releases the completion it is handed. It counts, from outside the
// hierarchy, what Stats must count once per request: the requests the call
// put into the core's demand queue, and the accepted calls that missed the
// DL1.
func (m *machine) demand(core int, inst trace.Inst, now uint64) (fut *Completion, ok bool) {
	h := m.h
	if m.audit != nil && h.DispatchStalled(core, inst.VA) {
		m.auditDemandMemo(core, inst.VA, now)
	}
	line := h.translators[core].TranslateLine(mem.LineOf(inst.VA))
	missed, queued := h.dl1[core].Peek(line) == nil, h.demandQ[core].len()
	_, fut, ok = h.Demand(core, inst.PC, inst.VA, inst.Op == trace.OpStore, now)
	m.enqueued += uint64(h.demandQ[core].len() - queued)
	if ok {
		if missed {
			m.dl1Misses++
		}
		if m.ledger != nil && inst.Op == trace.OpStore {
			m.ledger.stored(m.audit, h, core, line, now)
		}
	}
	return fut, ok
}

func (f *frontEnd) cycle(m *machine, core int, now uint64) {
	if f.side != nil && now%sidePeriod == 0 {
		inst, _ := nextMemOp(f.side)
		if fut, ok := m.demand(core, inst, now); ok {
			if fut != nil {
				m.h.Release(fut)
			}
			m.h.RetireMemOp(core, inst.PC, inst.VA)
		}
	}
	for len(f.window) > 0 && f.window[0].DoneBy(now) {
		m.h.Release(f.window[0])
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
	m.h.RetireMemOp(core, f.inst.PC, f.inst.VA)
	f.fetch(now + 1)
}

// machine is one hierarchy with its front ends and counting prefetchers.
type machine struct {
	h   *Hierarchy
	fes []*frontEnd
	pfs []*countingPF
	// audit, when set, makes this the audited machine: every attempt about
	// to be answered from a refusal memo is first checked against the pure
	// predicate the memo stands in for, and every cycle ends with
	// auditInFlight.
	audit *testing.T
	// ledger, when set (on the audited machine), follows every line a store
	// makes dirty until DRAM writes it (see ledger).
	ledger *ledger
	// demandAudits counts auditDemandMemo calls; every tlbAuditEvery-th one
	// also pays for a look inside the DTLB1.
	demandAudits int
	// enqueued counts the requests that entered a demand queue, and
	// dl1Misses the accepted Demand calls that missed the DL1 (see demand).
	enqueued, dl1Misses uint64
	// prefFills are the prefetch entries each core's L2 fill queue held at
	// the latest auditInFlight; prefEntered and prefLeft count the prefetch
	// entries it has seen enter and leave those queues, and tagDrops is
	// PrefDroppedTagCheck as it last read it.
	prefFills             [][]prefFill
	prefEntered, prefLeft uint64
	tagDrops              uint64
}

// prefFill is a prefetch entry of an L2 fill queue. Entries are pooled, so
// the line tells a reused entry from the one it was.
type prefFill struct {
	e    *fillEntry
	line mem.LineAddr
}

const tlbAuditEvery = 53

// auditDemandMemo checks what a Demand memo hit takes for granted: the access
// misses the DL1, has no MSHR to merge onto and none free, and its page is
// the DTLB1's most recent entry (so the DTLB1 access the hit skips would have
// moved nothing).
func (m *machine) auditDemandMemo(core int, va mem.Addr, now uint64) {
	t, h := m.audit, m.h
	t.Helper()
	line := h.translators[core].TranslateLine(mem.LineOf(va))
	merging := h.outstanding[core].find(line) >= 0
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
	return ne
}

// releaseHeld gives back every completion the front ends still hold.
func (m *machine) releaseHeld() {
	for _, f := range m.fes {
		for _, c := range f.window {
			m.h.Release(c)
		}
		f.window = nil
	}
}

// front runs the core side of cycle now; the caller ticks the hierarchy.
func (m *machine) front(now uint64) {
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
	cfg       func(*Config)
	dram      func(*dram.Params)
	// wantPaths are the refusal paths this row exists to exercise.
	wantPaths []string
	// wantMemos are the refusal memos this row exists to exercise: "demand",
	// and the queue-head memos by the cause they remember, "head:" or "pref:"
	// and then "l2fq", "l3fq" or "readq" (memoCounts.fired).
	wantMemos []string
}

// causeNames name the refusal causes in wantMemos.
var causeNames = [causes]string{refusedL2FQ: "l2fq", refusedL3FQ: "l3fq", refusedReads: "readq"}

// total is a queue-head memo's hits over every cause.
func total(hits [causes]uint64) (n uint64) {
	for _, h := range hits {
		n += h
	}
	return n
}

// fired maps each memo, and each cause of the two queue-head memos, to the
// attempts it answered.
func (c memoCounts) fired() map[string]uint64 {
	m := map[string]uint64{"demand": c.demand}
	for why, name := range causeNames {
		m["head:"+name] = c.head[why]
		m["pref:"+name] = c.pref[why]
	}
	return m
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
	m := &machine{}
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
// TLB level's contents with their stamps and clock (the cheap fingerprint has
// only the walk counts) and the DL1 stride prefetchers' tables and filters.
// It is compared every deepEvery cycles and at the end of a row.
type deepState struct {
	TLBs   []tlb.State
	Stride []stride.Prefetcher
}

const deepEvery = 97 // prime: no phase-lock with the bus ratio

func (m *machine) deep() deepState {
	var d deepState
	for c := range m.h.tlbs {
		d.TLBs = append(d.TLBs, m.h.tlbs[c].SaveState())
		if pf, ok := m.h.l1pf[c].(*stride.Prefetcher); ok {
			d.Stride = append(d.Stride, *pf)
		}
	}
	return d
}

// diff names the cores whose deep state differs.
func (a deepState) diff(b deepState) string {
	var out string
	level := func(c int, name string, x, y tlb.LevelState) {
		if !reflect.DeepEqual(x, y) {
			out += fmt.Sprintf("\n  core %d %s: clock %d vs %d (VPNs equal: %v, stamps equal: %v)",
				c, name, x.Clock, y.Clock, slices.Equal(x.VPNs, y.VPNs), slices.Equal(x.Stamps, y.Stamps))
		}
	}
	for c := range a.TLBs {
		level(c, "DTLB1", a.TLBs[c].DTLB1, b.TLBs[c].DTLB1)
		level(c, "TLB2", a.TLBs[c].TLB2, b.TLBs[c].TLB2)
	}
	for c := range a.Stride {
		if a.Stride[c] != b.Stride[c] {
			out += fmt.Sprintf("\n  core %d stride prefetcher: %+v vs %+v", c, a.Stride[c], b.Stride[c])
		}
	}
	return out
}

// fingerprint is everything the test can see of a machine short of cache and
// TLB contents: every statistic, every TLB walk count, every queue
// occupancy, the flags of every fill-queue entry, the prefetchers' call
// counts and DRAM's counters. (Not the entry pool, which a refused attempt
// borrows from, nor the completion pool: neither is model state.) v has
// perCoreWords words per core, then the shared ones.
type fingerprint struct {
	stats Stats
	v     []uint64
}

const perCoreWords = 10

var perCoreLabels = [perCoreWords]string{
	"tlb.Walks", "len(demandQ)", "demandQ head line", "len(l2fq)", "l2fq entry flags", "pq.n",
	"len(outstanding)", "len(dl1Fills)", "l2pf OnAccess calls", "l2pf OnFill calls",
}

var sharedLabels = []string{
	"len(l3fq)", "l3fq entry flags",
	"len(pendingWB)", "dram.Reads", "dram.Writes", "dram.RowHits", "dram.RowClosed",
	"dram.RowConflicts", "dram.UrgentReads", "dram idle",
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
		w := uint64(e.line)<<8 | b(e.isPrefetch, 0) | b(e.promoted, 1) | b(e.fillL1, 2)
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
			h.tlbs[c].Walks, uint64(h.demandQ[c].len()), head, uint64(h.l2fq[c].len()), queueFlags(h.l2fq[c]),
			uint64(h.pq[c].n),
			uint64(h.outstanding[c].len()), uint64(len(h.dl1Fills[c])), m.pfs[c].accesses, m.pfs[c].fills)
	}
	d := h.mem.TotalStats()
	idle := uint64(0)
	if h.mem.Idle() {
		idle = 1
	}
	v = append(v, uint64(h.l3fq.len()), queueFlags(h.l3fq),
		uint64(len(h.pendingWB)), d.Reads, d.Writes, d.RowHits, d.RowClosed,
		d.RowConflicts, d.UrgentReads, idle)
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
// when it does not). The verdict the test trusts is processDemand's, not this
// one.
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
	}
	return ""
}

// checkedTick is Hierarchy.Tick with the stall predicate audited where it
// matters: after this cycle's fills have drained, around each core's
// processDemand. An attempt a refusal memo is about to answer must be one
// the predicate calls blocked (and is then held to the same pure-refusal
// check as any other). Its body must stay a copy of Tick's — the lock-step
// comparison against a machine that runs the real Tick enforces that. The
// ledger, if any, settles after each step that can move dirty data.
func (m *machine) checkedTick(t *testing.T, now uint64, paths map[string]int) {
	t.Helper()
	h, l := m.h, m.ledger
	h.stats.L2FQOccupancySum += uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += uint64(h.outstanding[0].len())
	h.stats.PrefQOccupancySum += uint64(h.pq[0].n)
	for _, e := range h.l3fq.entries {
		if e.readyAt <= now {
			l.expect(fill{core: e.core, line: e.line, into: inL3})
		}
	}
	h.drainL3Fills(now)
	l.settle(t, h, now)
	for c, q := range h.l2fq {
		for _, e := range q.popReady(now) {
			// Each prefetch entry is checked as it leaves (auditInFlight).
			line, prefetch := e.line, e.isPrefetch
			into := inL2
			if e.fillL1 {
				into = inDL1
			}
			l.expect(fill{core: c, line: line, into: into})
			h.fillL2(c, e, now)
			l.settle(t, h, now)
			if prefetch && h.l2[c].Peek(line) == nil {
				t.Fatalf("cycle %d core %d: the prefetch of line %#x left the L2 fill queue, but the line is not in the L2", now, c, line)
			}
		}
		for _, f := range h.dl1Fills[c] {
			if f.at <= now {
				l.expect(fill{core: c, line: f.line, into: inDL1})
			}
		}
		h.drainDL1Fills(c, now)
		l.settle(t, h, now)
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
			continue
		}
		paths[path]++
		// One attempt, refused: nothing moves, not even a counter.
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
	l.expectWB(h)
	h.retryWritebacks(now)
	l.settle(t, h, now)
	reads := h.mem.ReadVersion()
	h.mem.Tick(now)
	if h.mem.ReadVersion() != reads {
		h.readsIssued()
	}
	m.auditInFlight(t, now)
}

// auditInFlight checks four records of in-flight requests.
//
// The L3 fill queue is the one record of an in-flight DRAM read: it holds
// each line at most once, so the uncore never sends DRAM a second read of a
// line already on its way (DRAM would serve it as a request of its own),
// and its entries whose arrival is unknown are exactly the reads DRAM has
// queued and not yet issued — each L3 miss enqueued one read, and the Tick
// that issues a read sets its entry's arrival, so after a Tick no entry
// holds an issued read it has not taken the arrival of.
//
// An L2 fill-queue entry waits on DRAM only through the L3 fill queue: an
// entry whose arrival is unknown has an L3 fill-queue entry of its line
// that is waiting too, whose arrival it takes when DRAM issues the read.
//
// A DL1 MSHR does not leak: each line in a core's MSHRs has a request on
// its way to that core's DL1 (mshrInFlight), so every register is released
// by a fill that is still to come. Nor is one released early: every request
// in a core's L2 demand queue, every L2 fill-queue entry that goes on to the
// DL1 and every pending DL1 fill holds its line's MSHR, so a second access
// to the line merges onto it rather than sending the L2 a second request,
// and the fill finds the register insertDL1 takes. insertDL1 is the one
// place a register is released.
//
// A core's prefetch queue holds each line at most once: footnote 13's
// associative search (triggerL2Prefetcher) drops a target already queued,
// so one line is never prefetched twice from one queue.
//
// A prefetch is never lost on its way: every prefetch queued and not
// cancelled is still queued or has entered its core's L2 fill queue, and
// every prefetch entry that leaves that queue has its line in the L2 as it
// leaves — placed there, or dropped by the fill-time tag check because it
// already was. (checkedTick checks each entry as fillL2 takes it: at the end
// of the tick the line can be gone again, evicted by a dirty DL1 victim
// that a later fill placed into the L2.) Each tag-check drop is an entry
// leaving.
func (m *machine) auditInFlight(t *testing.T, now uint64) {
	t.Helper()
	h := m.h
	for c, q := range h.pq {
		for i := 0; i < q.n; i++ {
			for j := 0; j < i; j++ {
				if line := q.lines[q.slot(i)]; q.lines[q.slot(j)] == line {
					t.Fatalf("cycle %d core %d: line %#x is queued twice in the prefetch queue", now, c, line)
				}
			}
		}
	}
	for c := range h.outstanding {
		for _, line := range h.outstanding[c].lines {
			if !mshrInFlight(h, c, line) {
				t.Fatalf("cycle %d core %d: line %#x holds a DL1 MSHR, but no request for it is in the core's L2 demand queue, L2 fill queue or pending DL1 fills: nothing will release it",
					now, c, line)
			}
		}
		q := &h.demandQ[c]
		for _, r := range q.reqs[q.head:] {
			if h.outstanding[c].find(r.line) < 0 {
				t.Fatalf("cycle %d core %d: a request for line %#x waits in the L2 demand queue, but the line holds no DL1 MSHR: its next access sends the L2 a second request",
					now, c, r.line)
			}
		}
		for _, e := range h.l2fq[c].entries {
			if e.fillL1 && h.outstanding[c].find(e.line) < 0 {
				t.Fatalf("cycle %d core %d: L2 fill-queue entry for line %#x goes on to the DL1, but the line holds no DL1 MSHR for insertDL1 to take",
					now, c, e.line)
			}
		}
		for _, f := range h.dl1Fills[c] {
			if h.outstanding[c].find(f.line) < 0 {
				t.Fatalf("cycle %d core %d: a DL1 fill of line %#x is pending, but the line holds no DL1 MSHR for insertDL1 to take",
					now, c, f.line)
			}
		}
	}
	var unresolved uint64
	for i, e := range h.l3fq.entries {
		for _, o := range h.l3fq.entries[:i] {
			if o.line == e.line {
				t.Fatalf("cycle %d: line %#x has two L3 fill-queue entries", now, e.line)
			}
		}
		if e.readyAt != never {
			continue
		}
		if e.read.Resolved() {
			t.Fatalf("cycle %d: DRAM issued the read of line %#x, arriving at cycle %d, but its L3 fill-queue entry still waits on DRAM",
				now, e.line, e.read.Cycle())
		}
		unresolved++
	}
	if misses, reads := h.stats.L3Misses, h.mem.TotalStats().Reads; unresolved != misses-reads {
		t.Fatalf("cycle %d: %d L3 fill-queue entries wait on DRAM, but L3Misses %d - DRAM.Reads %d = %d reads are queued",
			now, unresolved, misses, reads, misses-reads)
	}
	for c, q := range h.l2fq {
		for _, e := range q.entries {
			if e.readyAt != never {
				continue
			}
			if l3e := h.l3fq.find(e.line); l3e == nil || l3e.readyAt != never {
				t.Fatalf("cycle %d core %d: line %#x waits on DRAM in the L2 fill queue, but no L3 fill-queue entry of it waits on DRAM (entry present: %v)",
					now, c, e.line, l3e != nil)
			}
		}
	}
	m.auditPrefetchFills(t, now)
}

// auditPrefetchFills is auditInFlight's prefetch side.
func (m *machine) auditPrefetchFills(t *testing.T, now uint64) {
	t.Helper()
	h := m.h
	if m.prefFills == nil {
		m.prefFills = make([][]prefFill, len(h.l2fq))
	}
	var left, queued uint64
	for c, q := range h.l2fq {
		var held []prefFill
		for _, e := range q.entries {
			if e.isPrefetch {
				held = append(held, prefFill{e, e.line})
			}
		}
		for _, p := range m.prefFills[c] {
			if !slices.Contains(held, p) {
				left++
			}
		}
		for _, p := range held {
			if !slices.Contains(m.prefFills[c], p) {
				m.prefEntered++
			}
		}
		m.prefFills[c] = held
		queued += uint64(h.pq[c].n)
	}
	m.prefLeft += left
	st := h.Stats()
	if drops := st.PrefDroppedTagCheck - m.tagDrops; drops > left {
		t.Fatalf("cycle %d: the tag check dropped %d prefetch fills, but %d prefetch entries left the L2 fill queues", now, drops, left)
	}
	m.tagDrops = st.PrefDroppedTagCheck
	if sent := st.PrefIssued - st.PrefCancelled - queued; sent != m.prefEntered {
		t.Fatalf("cycle %d: PrefIssued %d - PrefCancelled %d - %d still queued = %d prefetches sent, but %d entered an L2 fill queue",
			now, st.PrefIssued, st.PrefCancelled, queued, sent, m.prefEntered)
	}
}

// mshrInFlight reports whether core has a request for line on its way to
// the DL1, in one of the three places that can hold one: its L2 demand queue
// (not yet at the L2), its L2 fill queue (an L2 miss, or a request merged
// onto an in-flight fill, so an entry that goes on to the DL1; its drain
// releases the MSHR) or its pending DL1 fills (an L2 hit, whose insertDL1
// releases it). An entry that fills only the L2, a prefetch nothing merged
// onto, releases nothing.
func mshrInFlight(h *Hierarchy, core int, line mem.LineAddr) bool {
	q := &h.demandQ[core]
	for _, r := range q.reqs[q.head:] {
		if r.line == line {
			return true
		}
	}
	for _, e := range h.l2fq[core].entries {
		if e.line == line && e.fillL1 {
			return true
		}
	}
	for _, f := range h.dl1Fills[core] {
		if f.line == line {
			return true
		}
	}
	return false
}

// TestStallPredicateLockStep holds the stall predicate and the refusal memos
// to the model they summarize. Three machines replay one seeded request
// stream. The audited one ticks every cycle through checkedTick, which checks
// the predicate against what processDemand then actually does and every memo
// hit against the predicate. The plain one ticks every cycle with the memos
// switched off, so every attempt is evaluated in full: it is the oracle for
// the memos, and the two must be indistinguishable at every cycle. The
// skipping one follows NextEvent and AccountIdle exactly as the engine does —
// its front ends sit out their refused retries as cpu.Core does
// (DispatchStalled) — and must be indistinguishable whenever it ticks. Indistinguishable means identical
// Stats, TLB walk counts, queue occupancies, fill-queue flags, prefetcher
// call counts and DRAM counters; and, every deepEvery cycles and at the end,
// identical TLB contents (stamps and clocks) and stride prefetchers (tables
// and filters).
func TestStallPredicateLockStep(t *testing.T) {
	for _, row := range stallRows() {
		t.Run(row.name, row.run)
	}
}

// stallRows are TestStallPredicateLockStep's configurations.
func stallRows() []stallRow {
	rows := []stallRow{
		{name: "1core-mcf-bo", workloads: []string{"429.mcf"}, l2pf: "bo", l1pf: "stride", cycles: 150_000,
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"head:l2fq"}},
		{name: "4core-thrash", workloads: []string{"429.mcf", "microthrash", "microthrash", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			wantPaths: []string{"l2fq-full", "l3fq-full", "prefetch-blocked"},
			wantMemos: []string{"demand", "head:l2fq", "head:l3fq", "pref:l3fq"}},
		{name: "no-promotion", workloads: []string{"462.libquantum"}, l2pf: "nextline", l1pf: "none", cycles: 60_000,
			cfg:       func(c *Config) { c.LatePromotion = false },
			wantPaths: []string{"no-promotion"}, wantMemos: []string{"head:l2fq"}},
		{name: "4MB-pages-sbp", workloads: []string{"433.milc", "microthrash"}, l2pf: "sbp", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.Page = mem.Page4M },
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head:l2fq"}},
		{name: "tiny-queues", workloads: []string{"429.mcf", "microthrash", "470.lbm", "microthrash"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 60_000,
			cfg:       func(c *Config) { c.L2FillQueueLen, c.L3FillQueueLen, c.PrefetchQueueLen = 4, 12, 4 },
			dram:      func(p *dram.Params) { p.ReadQueueLen = 1 },
			wantPaths: []string{"l2fq-full", "l3fq-full", "readq-full", "prefetch-blocked"},
			wantMemos: []string{"demand", "head:l2fq", "head:l3fq", "head:readq", "pref:l3fq", "pref:readq"}},
		{name: "tiny-queues-no-promotion", workloads: []string{"462.libquantum", "microthrash"},
			l2pf: "nextline", l1pf: "stride", cycles: 40_000,
			cfg: func(c *Config) {
				c.L2FillQueueLen, c.L3FillQueueLen, c.LatePromotion = 6, 8, false
			},
			dram:      func(p *dram.Params) { p.ReadQueueLen = 2 },
			wantPaths: []string{"no-promotion", "l2fq-full", "readq-full"},
			wantMemos: []string{"demand", "head:l2fq", "head:l3fq", "head:readq", "pref:l3fq", "pref:readq"}},
		// The two rows below exist for version bumps nothing above depends on.
		// Side streams touch each core's DTLB1, DL1 and MSHRs between two
		// retries of a refused access, and L2 hits come back to the DL1 while
		// the MSHRs are full: the front version has to move for all of it.
		{name: "side-streams", workloads: []string{"462.libquantum", "470.lbm"}, side: "453.povray",
			l2pf: "bo", l1pf: "stride", cycles: 60_000,
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head:l2fq"}},
		// Dirty lines bounce between an L2 and an L3 a few times its size while
		// next-line prefetches of those very lines wait on a 4-entry L3 fill
		// queue: an L2 victim written back is a line the L3 gains.
		{name: "L2-victims-reach-L3", workloads: []string{"gups:footprint=64kb,storepct=100", "microthrash"},
			l2pf: "nextline", l1pf: "none", cycles: 80_000,
			cfg:       func(c *Config) { c.L2Size, c.L3Size, c.L3FillQueueLen = 32<<10, 64<<10, 4 },
			wantPaths: []string{"l3fq-full", "prefetch-blocked"}, wantMemos: []string{"head:l3fq", "pref:l3fq"}},
	}
	// multi on the common multiples of a 2-line stride asks for one line
	// from several accesses (offset 12 of one, offset 6 of the access 6
	// lines on), so a target is often queued already: footnote 13's search
	// drops it, and auditInFlight fails the row if a line is queued twice.
	rows = append(rows, stallRow{name: "multi-duplicate-targets", workloads: []string{"stream:stride=128,memper1000=20,footprint=64mb"},
		l2pf: "multi:offsets=6+12+18+24", l1pf: "none", cycles: 60_000})
	for _, policy := range []string{"LRU", "DRRIP", "5P"} { // an L3 small enough for the policy to matter
		rows = append(rows, stallRow{name: "L3-" + policy, workloads: []string{"470.lbm", "microthrash"},
			l2pf: "bo", l1pf: "stride", cycles: 40_000,
			cfg:       func(c *Config) { c.L3Policy, c.L3Size = policy, 128<<10 },
			wantPaths: []string{"l2fq-full"}, wantMemos: []string{"demand", "head:l2fq"}})
	}
	return rows
}

// run replays the row on its three machines (see TestStallPredicateLockStep).
func (row stallRow) run(t *testing.T) {
	oracle, plain, skipper := row.build(t, true), row.build(t, false), row.build(t, true)
	oracle.audit, oracle.ledger = t, newLedger()
	paths := map[string]int{}
	var oracleNow, now, skipped, headSkipped, demandSkipped uint64
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
			if skipper.headDue(now) {
				headSkipped += span
			}
			for c, f := range skipper.fes {
				if f.stalled(skipper, c, now) {
					demandSkipped += span
					break
				}
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
	hits := oracle.h.memoHits
	t.Logf("%d cycles, %d skipped, %d of them with a stalled head, %d with a stalled Demand retry; refusals by path: %v",
		row.cycles, skipped, headSkipped, demandSkipped, paths)
	t.Logf("answered from a memo: %d Demand calls, demand-queue heads %v and prefetch-queue heads %v by cause %v; %d and %d refusals evaluated in full",
		hits.demand, hits.head, hits.pref, causeNames, hits.headMisses, hits.prefMisses)
	if n := plain.h.memoHits; n.demand+total(n.head)+total(n.pref) != 0 {
		t.Errorf("the machine with memos off answered %+v attempts from a memo: it is no oracle", n)
	}
	for _, p := range row.wantPaths {
		if paths[p] == 0 {
			t.Errorf("refusal path %q never fired: this row no longer tests it", p)
		}
	}
	fired := hits.fired()
	for _, m := range row.wantMemos {
		if n, ok := fired[m]; !ok {
			t.Fatalf("no memo is named %q", m)
		} else if n == 0 {
			t.Errorf("the %s memo never answered an attempt: this row no longer tests it", m)
		}
	}
	if headSkipped == 0 {
		t.Error("no cycle was skipped over a stalled head: the row does not skip refused queue heads")
	}
	if slices.Contains(row.wantMemos, "demand") && demandSkipped == 0 {
		t.Error("no cycle was skipped over a core retrying a refused Demand: the row does not skip dispatch stalls")
	}
	oracle.drain(t, oracleNow, 2*row.cycles)
}

// headDue reports whether some core's demand-queue head is due at now. At a
// cycle NextEvent lets the machine skip, such a head is a stalled one.
func (m *machine) headDue(now uint64) bool {
	for c := range m.h.demandQ {
		if q := &m.h.demandQ[c]; q.len() > 0 && q.front().readyAt <= now {
			return true
		}
	}
	return false
}

// TestRequestsCountedOnce holds Stats to one count per request on every
// lock-step row: run each to the end of its request stream and then dry,
// every L2 access counted must be a request that entered a demand queue,
// every DL1 miss an accepted Demand call that missed the DL1 (an MSHR merge
// included), every L3 miss one DRAM read, and every prefetch sent
// (PrefIssued - PrefCancelled) one entry that entered and left an L2 fill
// queue (auditInFlight, every cycle). A refused attempt, however often
// replayed, counts nothing; the rows must see refusals for that to mean
// anything. Every request also lets go of its completion exactly once: once
// the front ends release what they hold, no completion is live.
func TestRequestsCountedOnce(t *testing.T) {
	for _, row := range stallRows() {
		t.Run(row.name, func(t *testing.T) {
			m := row.build(t, true)
			now := uint64(0)
			for ; now < row.cycles; now++ {
				m.front(now)
				m.h.Tick(now)
				m.auditInFlight(t, now)
			}
			for ; !m.h.Drained(); now++ {
				if now > 2*row.cycles {
					t.Fatalf("not drained %d cycles after the last request", now-row.cycles)
				}
				m.h.Tick(now)
				m.auditInFlight(t, now)
			}
			m.releaseHeld()
			if n := m.h.comps.live; n != 0 {
				t.Errorf("%d completions live in the drained hierarchy after the front ends released all they held", n)
			}
			st, hits := m.h.Stats(), m.h.memoHits
			t.Logf("%d requests entered a demand queue, %d accepted Demand calls missed the DL1, %d prefetches filled or were dropped by the tag check; memo hits %+v",
				m.enqueued, m.dl1Misses, m.prefLeft, hits)
			if st.L2Hits+st.L2Misses != m.enqueued {
				t.Errorf("L2Hits %d + L2Misses %d for %d requests that entered a demand queue",
					st.L2Hits, st.L2Misses, m.enqueued)
			}
			if st.DL1Misses != m.dl1Misses {
				t.Errorf("DL1Misses %d for %d accepted Demand calls that missed the DL1", st.DL1Misses, m.dl1Misses)
			}
			if reads := m.h.mem.TotalStats().Reads; st.L3Misses != reads {
				t.Errorf("L3Misses %d but DRAM served %d reads: each L3 miss is one DRAM read", st.L3Misses, reads)
			}
			if sent := st.PrefIssued - st.PrefCancelled; m.prefEntered != sent || m.prefLeft != sent {
				t.Errorf("PrefIssued %d - PrefCancelled %d = %d prefetches sent, but %d entered an L2 fill queue and %d left one",
					st.PrefIssued, st.PrefCancelled, sent, m.prefEntered, m.prefLeft)
			}
			for _, memo := range row.wantMemos {
				if n := hits.fired()[memo]; n == 0 {
					t.Errorf("no %s attempt was refused twice: the row no longer refuses what it must not count", memo)
				}
			}
		})
	}
}

// queryCounter forwards the prefetch.L1Prefetcher methods and nothing else,
// as a timing decorator does, and counts the Query calls.
type queryCounter struct {
	prefetch.L1Prefetcher
	queries *int
}

func (p queryCounter) Query(pc uint64, va mem.Addr) (mem.Addr, bool) {
	*p.queries++
	return p.L1Prefetcher.Query(pc, va)
}

// The stride machine: misses at fillPC take MSHRs, and strideRetirements
// retirements at stridePC make its stride of one line confident, so an
// access at stridePC that asks the stride prefetcher issues a prefetch
// DistanceFactor lines ahead, in the same 4 KB page when va is page-aligned.
const (
	fillPC, stridePC   = 0x400, 0x800
	strideVA           = mem.Addr(0x900000)
	strideRetirements  = stride.ConfidenceMax + 2 // the first sets the address, the second the stride
	strideTargetOffset = stride.DistanceFactor * mem.LineSize
)

// strideMachine returns a one-core hierarchy with l1 as its DL1 prefetcher,
// stridePC's stride confident, and all but free MSHRs taken.
func strideMachine(t *testing.T, l1 prefetch.L1Prefetcher, free int) *Hierarchy {
	t.Helper()
	h := New(DefaultConfig(1, mem.Page4K), nil, func(int) prefetch.L1Prefetcher { return l1 }, nil)
	for i := 0; i < strideRetirements; i++ {
		h.RetireMemOp(0, stridePC, mem.Addr(0x800000+i*mem.LineSize))
	}
	for i := 0; i < h.cfg.MSHRs-free; i++ {
		if _, _, ok := h.Demand(0, fillPC, mem.Addr(0x100000+i*4096), false, 0); !ok {
			t.Fatalf("access %d refused with %d MSHRs", i, h.cfg.MSHRs)
		}
	}
	return h
}

// refuse sends the stride access, which full MSHRs must refuse.
func refuse(t *testing.T, h *Hierarchy) {
	t.Helper()
	if _, _, ok := h.Demand(0, stridePC, strideVA, false, 0); ok {
		t.Fatal("an access past the last MSHR was accepted")
	}
}

// TestDispatchStalled walks the predicate through its conditions on one
// refused access: it holds only for the address the demand memo remembers,
// and only until something touches the core's DTLB1, DL1 or MSHRs — an MSHR
// released lifts it. The DL1 prefetcher is no part of it: a refusal asks it
// nothing, so neither a retirement that updates its table nor a new set of
// prefetchers lifts the predicate, and every prefetcher, none, bare or
// decorated, stalls alike. While the predicate holds, a replay moves
// nothing: the TLBs, the stride prefetcher and Stats stay as they were.
func TestDispatchStalled(t *testing.T) {
	h := strideMachine(t, stride.New(), 0)
	refuse(t, h)
	if !h.DispatchStalled(0, strideVA) {
		t.Fatal("a refused access is not a stall")
	}
	if h.DispatchStalled(0, strideVA+mem.LineSize) {
		t.Error("stalled for an access the memo does not remember")
	}

	h.RetireMemOp(0, stridePC, mem.Addr(0x800000+strideRetirements*mem.LineSize))
	if !h.DispatchStalled(0, strideVA) {
		t.Error("a retirement that updated the DL1 prefetcher's table lifted the stall")
	}
	before, stats := (&machine{h: h}).deep(), h.Stats()
	const n = 7
	for i := 0; i < n; i++ {
		refuse(t, h)
	}
	if after := (&machine{h: h}).deep(); !reflect.DeepEqual(after, before) || h.Stats() != stats {
		t.Errorf("%d refused replays moved the machine; before vs after:%s\n  Stats %+v vs %+v",
			n, before.diff(after), stats, h.Stats())
	}

	h.SetPrefetchers(nil, func(int) prefetch.L1Prefetcher { return stride.New() })
	if !h.DispatchStalled(0, strideVA) {
		t.Error("a new set of prefetchers lifted the stall")
	}

	for now := uint64(0); h.outstanding[0].len() == h.cfg.MSHRs; now++ { // until a fill releases an MSHR
		if now == 100_000 {
			t.Fatal("no MSHR released after 100,000 cycles")
		}
		h.Tick(now)
	}
	if h.DispatchStalled(0, strideVA) {
		t.Error("stalled although an MSHR has been released since the refusal")
	}

	queries := new(int)
	for _, l1 := range []prefetch.L1Prefetcher{nil, stride.New(), queryCounter{stride.New(), queries}} {
		h := strideMachine(t, l1, 0)
		asked := *queries
		refuse(t, h)
		if !h.DispatchStalled(0, strideVA) {
			t.Errorf("DL1 prefetcher %T: a refused access is not a stall", l1)
		}
		if *queries != asked {
			t.Errorf("DL1 prefetcher %T: a refused access asked it %d times", l1, *queries-asked)
		}
	}
}

// TestRefusedAccessAsksNoPrefetcher holds the DL1 prefetcher to the accesses
// that leave a register free for its prefetch: a confident stride's access
// refused for full MSHRs, or taking the last one, leaves the stride
// prefetcher's table and filter as they were, so its replay is asked afresh.
func TestRefusedAccessAsksNoPrefetcher(t *testing.T) {
	for free := 0; free <= 1; free++ {
		h := strideMachine(t, stride.New(), free)
		before := *h.l1pf[0].(*stride.Prefetcher)
		_, _, ok := h.Demand(0, stridePC, strideVA, false, 0)
		if ok != (free == 1) {
			t.Fatalf("with %d MSHRs free the access was accepted: %v", free, ok)
		}
		if after := *h.l1pf[0].(*stride.Prefetcher); !reflect.DeepEqual(after, before) {
			t.Errorf("with %d MSHRs free the access moved the stride prefetcher:\n  %+v\nvs %+v", free, before, after)
		}
		if n := h.Stats().StridePrefIssued; n != 0 {
			t.Errorf("with %d MSHRs free %d stride prefetches issued", free, n)
		}
	}
}

// TestReplayIssuesStridePrefetch replays a refused access once two MSHRs are
// free, one for the access and one for its prefetch: the stride query the
// refusal never asked issues now.
func TestReplayIssuesStridePrefetch(t *testing.T) {
	h := strideMachine(t, stride.New(), 0)
	refuse(t, h)
	now := uint64(0)
	for ; h.outstanding[0].len() > h.cfg.MSHRs-2; now++ {
		if now == 100_000 {
			t.Fatal("two MSHRs not released after 100,000 cycles")
		}
		h.Tick(now)
	}
	if _, _, ok := h.Demand(0, stridePC, strideVA, false, now); !ok {
		t.Fatal("the replay was refused with two MSHRs free")
	}
	target := h.translators[0].TranslateLine(mem.LineOf(strideVA + strideTargetOffset))
	if i := h.outstanding[0].find(target); h.Stats().StridePrefIssued != 1 || i < 0 || !h.outstanding[0].infos[i].l1pf {
		t.Errorf("the replay issued %d stride prefetches; its target line %#x holds a prefetch's MSHR: %v",
			h.Stats().StridePrefIssued, target, i >= 0 && h.outstanding[0].infos[i].l1pf)
	}
}

// TestDemandQueuedAheadOfItsStridePrefetch checks the order a miss and the
// stride prefetch it triggers reach the L2 in: the demand first.
func TestDemandQueuedAheadOfItsStridePrefetch(t *testing.T) {
	h := strideMachine(t, stride.New(), DefaultConfig(1, mem.Page4K).MSHRs)
	if _, _, ok := h.Demand(0, stridePC, strideVA, false, 0); !ok {
		t.Fatal("a miss was refused with every MSHR free")
	}
	tr := h.translators[0]
	want := []mem.LineAddr{tr.TranslateLine(mem.LineOf(strideVA)), tr.TranslateLine(mem.LineOf(strideVA + strideTargetOffset))}
	var got []mem.LineAddr
	for _, r := range h.demandQ[0].reqs[h.demandQ[0].head:] {
		got = append(got, r.line)
	}
	if !slices.Equal(got, want) {
		t.Errorf("demand queue holds lines %#x, want the miss then its stride prefetch, %#x", got, want)
	}
}
