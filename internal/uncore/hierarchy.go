package uncore

import (
	"bopsim/internal/cache"
	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/tlb"
)

// dl1Fill is a block an L2 hit schedules for insertion into a DL1; its
// line's MSHR register says how it is placed.
type dl1Fill struct {
	line mem.LineAddr
	at   uint64
}

// Stats aggregates hierarchy-wide event counts. One request is one count,
// taken when the path accepts it. DL1Misses counts the accepted Demand calls
// that missed the DL1, MSHR merges included (a merge waits on the fill
// another miss started). Each request that leaves a demand queue — a core's
// access or a DL1 stride prefetch — is one L2 hit or one L2 miss. A refused
// attempt counts nothing: not one refused for full MSHRs, nor a queue head the
// L2 path refuses (fill queue or DRAM read queue full, or a late prefetch it
// may not promote), however many cycles it replays. The DL1 prefetcher is
// asked only when a register is free for its prefetch, so
// StridePrefDroppedTLB counts only targets that had one.
type Stats struct {
	DL1Hits, DL1Misses   uint64
	L2Hits, L2Misses     uint64
	L2PrefetchedHits     uint64
	L3Hits, L3Misses     uint64
	PrefIssued           uint64 // L2 prefetches entering the prefetch queue
	PrefDroppedDup       uint64 // suppressed by associative searches
	PrefDroppedTagCheck  uint64 // dropped by the mandatory fill-time tag check
	PrefLatePromotions   uint64 // fill-queue entries promoted to demand
	PrefCancelled        uint64 // evicted from the full prefetch queue
	StridePrefIssued     uint64
	StridePrefDroppedTLB uint64
	TLBWalks             uint64

	// Occupancy telemetry (sampled each cycle, core 0 only: a skipped span
	// adds its length times the constant occupancy) for diagnosing where
	// requests queue up. Divide by the simulated cycles for a mean.
	L2FQOccupancySum  uint64
	L3FQOccupancySum  uint64
	MSHROccupancySum  uint64
	PrefQOccupancySum uint64
}

// demandMemo is a Demand call refused for full MSHRs, and the front version
// the refusal was computed at. (Neither the PC nor load or store is
// remembered: a refusal reads neither.)
type demandMemo struct {
	ok    bool
	va    mem.Addr
	front uint64
}

// refusal is why the path below a queue head refused it: the first queue it
// found without room. The cause decides which versions can lift the refusal,
// each reading what the one before it reads and more.
type refusal uint8

const (
	// refusedL2FQ: core's L2 fill queue is full, or holds the line as a late
	// prefetch it may not promote. Only a pop of that queue (priv) frees a
	// slot, takes the prefetch out or puts the line into the L2.
	refusedL2FQ refusal = iota
	// refusedL3FQ: the L3 fill queue is full. It takes no line while full,
	// so only one of its pops, or the L3 gaining the line (shared), lifts
	// it, besides what lifts refusedL2FQ. The DRAM read queue is never asked.
	refusedL3FQ
	// refusedReads: the DRAM read queue has no room (ReadVersion as well).
	refusedReads
	causes // the number of causes
)

// pathMemo is a queue head the path below it refused, why, and the versions
// of the state the refusal read: priv for demand-queue heads only (a
// prefetch head refused by accessL3 read nothing private), shared unless the
// cause is refusedL2FQ, reads only for refusedReads.
type pathMemo struct {
	ok                  bool
	why                 refusal
	line                mem.LineAddr
	priv, shared, reads uint64
}

// holds reports whether the memo remembers line and the versions its cause
// reads of shared and the DRAM read queues still stand.
func (m *pathMemo) holds(h *Hierarchy, line mem.LineAddr) bool {
	return m.ok && m.line == line &&
		(m.why == refusedL2FQ || m.shared == h.shared && (m.why == refusedL3FQ || m.reads == h.mem.ReadVersion()))
}

// retryState is one core's part of the refusal memos (DESIGN.md, "Refusal
// memos"). A refused attempt is a pure function of state it does not change,
// so each of the three retry loops remembers its latest refusal together
// with the versions of what it read, and while those stand the next cycle's
// attempt is answered as refused without being evaluated. The versions
// are monotone counters, not machine state: only equality with a remembered
// value means anything. A refusal says something is full or absent, so a
// version has to move only when its state loses a queue entry or gains a
// line; what an accepted request or an issued prefetch adds keeps every
// refused head refused.
type retryState struct {
	// front moves with everything that touches this core's DTLB1, DL1 or
	// MSHRs: a full Demand and insertDL1 (the one place an MSHR is
	// released). A refused Demand never asks the DL1 prefetcher, so its
	// table is no part of a refusal.
	front uint64
	// priv moves when this core's L2 fill queue loses an entry, which is
	// also how its L2 gains a line: a fill-queue pop. (The other way in, a
	// dirty DL1 victim, is never the line a queue head asks for: that line
	// has an MSHR, so it is not in the DL1.)
	priv uint64

	demand demandMemo // core -> MSHRs (Demand)
	head   pathMemo   // demand-queue head -> L2 path (processDemand)
	pref   pathMemo   // prefetch-queue head -> L3 path (issueQueuedPrefetch)
}

// memoCounts tallies the attempts each retry loop answered from its memo,
// the queue heads by the cause their memo remembers, and the queue-head
// refusals evaluated in full (the memo did not hold). Tests read it to prove
// the cheap paths are the ones being exercised.
type memoCounts struct {
	demand                 uint64
	head, pref             [causes]uint64
	headMisses, prefMisses uint64
}

// Hierarchy is the full uncore shared by all cores of one simulation.
type Hierarchy struct {
	cfg Config

	dl1   []*cache.Cache
	l2    []*cache.Cache
	l3    *cache.Cache
	fivep *cache.FiveP // non-nil when L3Policy is 5P
	tlbs  []*tlb.Hierarchy
	// Prefetchers are never serialized: a checkpointed warmup runs without
	// them and the barrier (straight or restored) installs them cold.
	//bovet:allow statecodec prefetchers are not part of a snapshot; the barrier installs them cold
	l1pf []prefetch.L1Prefetcher // nil entries: no DL1 prefetching
	//bovet:allow statecodec prefetchers are not part of a snapshot; the barrier installs them cold
	l2pf []prefetch.L2Prefetcher
	// preIssueTagCheck enables the extra L2 tag lookup before issuing a
	// prefetch, which the paper adds for SBP-style degree-N requests
	// (section 6.3); prefetchers opt in via prefetch.PreIssueTagChecker.
	//bovet:allow statecodec derived wiring: SetPrefetchers recomputes it from the installed prefetchers
	preIssueTagCheck []bool

	mem *dram.Memory

	demandQ     []reqQueue
	l2fq        []*fillQueue
	l3fq        *fillQueue
	pq          []*prefetchQueue
	outstanding []mshrs
	dl1Fills    [][]dl1Fill
	pendingWB   []wbReq
	// pool is the free list of fill-queue entries. A drained hierarchy (every
	// one at a checkpoint) has no entry in a queue, and which free entry a
	// queue gets next is unobservable.
	//bovet:allow statecodec no entry is in a queue at a checkpoint; the free list is not model state
	pool entryPool
	// comps holds the completions of Demand and strideQuery. At a checkpoint
	// every request has retired and none is live, so it is no state a
	// snapshot needs.
	//bovet:allow statecodec no completion is live at a checkpoint; the free list is not model state
	comps completionPool

	// retry holds the per-core refusal memos and their versions. shared is
	// the version every core reads: it moves when the L3 fill queue loses an
	// entry or the L3 gains a line (a fill-queue pop, an L2 victim written
	// back). The fourth version is dram.Memory.ReadVersion. RestoreState
	// drops every memo.
	retry []retryState
	//bovet:allow statecodec version counter compared for equality only; RestoreState drops every memo that remembers a value of it
	shared uint64
	//bovet:allow statecodec telemetry about the memos, read by tests only
	memoHits memoCounts
	// memoOff stops refusals from being remembered, so every attempt is
	// evaluated in full: the oracle the memo tests compare against, as
	// SetSkipAhead(false) is for skipping. Only tests set it.
	memoOff bool

	translators []*mem.Translator

	//bovet:allow statecodec counters only: a snapshot is taken at the barrier, after ResetStats has zeroed them
	stats Stats
}

type wbReq struct {
	line mem.LineAddr
	core int
}

// New builds a hierarchy. newL2PF and newL1PF are called once per core to
// construct that core's private L2 and DL1 prefetchers (a nil factory, or a
// factory returning nil, means no prefetching at that level). memory may be
// nil, in which case the default DRAM for cfg.NumCores is built.
func New(cfg Config, newL2PF func(core int) prefetch.L2Prefetcher, newL1PF func(core int) prefetch.L1Prefetcher, memory *dram.Memory) *Hierarchy {
	if memory == nil {
		memory = dram.New(dram.DefaultParams(cfg.NumCores))
	}
	h := &Hierarchy{
		cfg:  cfg,
		l3:   cache.New("L3", cfg.L3Size, cfg.L3Ways, cfg.newL3Policy()),
		mem:  memory,
		l3fq: newFillQueue(cfg.L3FillQueueLen),
	}
	if fp, ok := h.l3.Policy().(*cache.FiveP); ok {
		h.fivep = fp
	}
	for c := 0; c < cfg.NumCores; c++ {
		dl1Sets := cfg.DL1Size / mem.LineSize / cfg.DL1Ways
		l2Sets := cfg.L2Size / mem.LineSize / cfg.L2Ways
		h.dl1 = append(h.dl1, cache.New("DL1", cfg.DL1Size, cfg.DL1Ways, cache.NewLRU(dl1Sets, cfg.DL1Ways)))
		h.l2 = append(h.l2, cache.New("L2", cfg.L2Size, cfg.L2Ways, cache.NewLRU(l2Sets, cfg.L2Ways)))
		h.tlbs = append(h.tlbs, tlb.New(cfg.Page))
		h.demandQ = append(h.demandQ, reqQueue{})
		h.l2fq = append(h.l2fq, newFillQueue(cfg.L2FillQueueLen))
		h.pq = append(h.pq, newPrefetchQueue(cfg.PrefetchQueueLen))
		h.outstanding = append(h.outstanding, newMSHRs(cfg.MSHRs))
		h.dl1Fills = append(h.dl1Fills, nil)
		h.retry = append(h.retry, retryState{})
		h.translators = append(h.translators, mem.NewTranslator(cfg.Page, cfg.Seed+uint64(c)*0x1234567))
	}
	h.l1pf = make([]prefetch.L1Prefetcher, cfg.NumCores)
	h.l2pf = make([]prefetch.L2Prefetcher, cfg.NumCores)
	h.preIssueTagCheck = make([]bool, cfg.NumCores)
	h.SetPrefetchers(newL2PF, newL1PF)
	return h
}

// Stats returns a snapshot of the hierarchy statistics.
func (h *Hierarchy) Stats() Stats {
	s := h.stats
	for _, t := range h.tlbs {
		s.TLBWalks += t.Walks
	}
	return s
}

// Memory returns the DRAM model (for traffic statistics).
func (h *Hierarchy) Memory() *dram.Memory { return h.mem }

// L2Prefetcher returns core's L2 prefetcher, for inspection.
func (h *Hierarchy) L2Prefetcher(core int) prefetch.L2Prefetcher { return h.l2pf[core] }

// L1Prefetcher returns core's DL1 prefetcher (nil when disabled), for
// inspection.
func (h *Hierarchy) L1Prefetcher(core int) prefetch.L1Prefetcher { return h.l1pf[core] }

// CanAccept reports whether core can start a new DL1 miss (MSHR space).
func (h *Hierarchy) CanAccept(core int) bool {
	return h.outstanding[core].len() < h.cfg.MSHRs
}

// Demand performs a demand load or store for core at cycle now without
// allocating on the hit path. It returns, in order of precedence:
//
//	ok == false: the request cannot be accepted yet (MSHRs full); retry.
//	c != nil:    the request is in flight; c carries the completion, and the
//	             caller holds it until it gives it back through Release.
//	c == nil:    a DL1 hit; done is the completion cycle.
func (h *Hierarchy) Demand(core int, pc uint64, va mem.Addr, isWrite bool, now uint64) (done uint64, c *Completion, ok bool) {
	if h.DispatchStalled(core, va) {
		// The same access again, against the same DTLB1, DL1 and MSHRs: a
		// hit on the DTLB1's most recent entry, a DL1 miss, no MSHR to merge
		// onto and none free, all of which moves nothing.
		h.memoHits.demand++
		return 0, nil, false
	}
	r := &h.retry[core]
	r.front++
	tlbLat := h.tlbs[core].Access(va)
	line := h.translators[core].TranslateLine(mem.LineOf(va))
	t0 := now + tlbLat

	if ln := h.dl1[core].Lookup(line); ln != nil {
		h.stats.DL1Hits++
		pfHit := ln.Prefetch()
		ln.ClearPrefetch()
		if isWrite {
			ln.SetDirty()
		}
		if pfHit {
			h.strideQuery(core, pc, va, t0)
		}
		return t0 + h.cfg.DL1Latency, nil, true
	}

	if i := h.outstanding[core].find(line); i >= 0 {
		// MSHR merge: a request for this line is already in flight.
		h.stats.DL1Misses++
		info := &h.outstanding[core].infos[i]
		if isWrite {
			info.markWrite = true
		}
		c = info.done
		c.retain() // the caller is one more holder
		h.strideQuery(core, pc, va, t0)
		return 0, c, true
	}
	if !h.CanAccept(core) {
		r.demand = demandMemo{ok: !h.memoOff, va: va, front: r.front}
		return 0, nil, false
	}
	h.stats.DL1Misses++
	c = h.comps.get(2) // the MSHR and the caller
	h.outstanding[core].add(line, outstandingInfo{done: c, markWrite: isWrite})
	h.demandQ[core].push(coreReq{line: line, readyAt: t0 + h.cfg.DL1Latency})
	h.strideQuery(core, pc, va, t0)
	return 0, c, true
}

// RetireMemOp updates the DL1 prefetcher table at retirement of a
// load/store (section 5.5: the table is updated at retirement to see
// accesses in program order).
func (h *Hierarchy) RetireMemOp(core int, pc uint64, va mem.Addr) {
	if h.l1pf[core] != nil {
		h.l1pf[core].Update(pc, va)
	}
}

// strideQuery asks the DL1 prefetcher for a prefetch on an accepted DL1 miss
// or a prefetched hit, applying the TLB2 gate of section 5.5. It asks only
// when a register is free for the prefetch, so a target is dropped only by
// the gate, a DL1 hit or a miss already in flight.
func (h *Hierarchy) strideQuery(core int, pc uint64, va mem.Addr, t0 uint64) {
	if h.l1pf[core] == nil || !h.CanAccept(core) {
		return
	}
	target, ok := h.l1pf[core].Query(pc, va)
	if !ok {
		return
	}
	if !h.tlbs[core].ProbeTLB2(target) {
		h.stats.StridePrefDroppedTLB++
		return
	}
	line := h.translators[core].TranslateLine(mem.LineOf(target))
	if h.dl1[core].Peek(line) != nil {
		return
	}
	if h.outstanding[core].find(line) >= 0 {
		return
	}
	// A demand that merges onto this register takes its completion (Demand).
	h.outstanding[core].add(line, outstandingInfo{done: h.comps.get(1), l1pf: true}) // the MSHR is its one holder
	h.demandQ[core].push(coreReq{line: line, readyAt: t0 + h.cfg.DL1Latency})
	h.stats.StridePrefIssued++
}

// Tick advances the uncore by one cycle: drain ready fills top-down, then
// process core requests at the L2s, then let queued L2 prefetches access
// the L3 (lowest priority), then retry blocked writebacks, then tick DRAM.
//
//bovet:hotpath
func (h *Hierarchy) Tick(now uint64) {
	h.stats.L2FQOccupancySum += uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += uint64(h.outstanding[0].len())
	h.stats.PrefQOccupancySum += uint64(h.pq[0].n)
	h.drainL3Fills(now)
	for c, q := range h.l2fq {
		for _, e := range q.popReady(now) {
			h.fillL2(c, e, now)
		}
		h.drainDL1Fills(c, now)
	}
	for c := range h.demandQ {
		h.processDemand(c, now)
	}
	for c := range h.pq {
		h.issueQueuedPrefetch(c, now)
	}
	h.retryWritebacks(now)
	reads := h.mem.ReadVersion()
	h.mem.Tick(now)
	if h.mem.ReadVersion() != reads {
		h.readsIssued()
	}
}

// readsIssued copies the arrival cycle of each read DRAM has just issued
// into the fill entries of its line: the L3 fill-queue entry that sent it
// and every L2 fill-queue entry waiting on that one. A line has one read in
// flight at most, because the L3 fill queue deduplicates them (accessL3).
func (h *Hierarchy) readsIssued() {
	for _, e := range h.l3fq.entries {
		if e.readyAt != ^uint64(0) || !e.read.Resolved() {
			continue
		}
		at := e.read.Cycle()
		h.l3fq.arrive(e.line, at)
		for _, q := range h.l2fq {
			q.arrive(e.line, at)
		}
	}
}

// AccountIdle charges span skipped cycles, starting at the cycle the latest
// NextEvent call was asked about, to the per-cycle sampled statistics. The
// engine calls it when event-driven stepping jumps the clock over cycles in
// which no component can do work: the occupancies a per-cycle Tick would have
// sampled are constant across such a span (a change would itself be an
// event), so span identical samples are added in one step. A stalled queue
// head owes nothing: its refused replays count nothing. Snapshot bytes match
// the per-cycle engine exactly.
func (h *Hierarchy) AccountIdle(span uint64) {
	h.stats.L2FQOccupancySum += span * uint64(h.l2fq[0].len())
	h.stats.L3FQOccupancySum += span * uint64(h.l3fq.len())
	h.stats.MSHROccupancySum += span * uint64(h.outstanding[0].len())
	h.stats.PrefQOccupancySum += span * uint64(h.pq[0].n)
}

// DispatchStalled reports whether core's latest Demand was for va, refused
// for full MSHRs, and nothing has touched the core's DTLB1, DL1 or MSHRs
// since: a Demand for va would then, now and on every repeat until the front
// version moves, be refused from the demand memo and move nothing. Such a
// retry is a stall, not an event, and skipping it owes the hierarchy nothing.
//
//bovet:hotpath
func (h *Hierarchy) DispatchStalled(core int, va mem.Addr) bool {
	r := &h.retry[core]
	m := &r.demand
	return m.ok && m.va == va && m.front == r.front
}

// headRefused reports whether core's demand-queue head, for line, was refused
// by the L2 path and nothing its refusal's cause read has changed since.
func (h *Hierarchy) headRefused(core int, line mem.LineAddr) bool {
	r := &h.retry[core]
	return r.head.priv == r.priv && r.head.holds(h, line)
}

// prefetchRefused is headRefused for core's prefetch-queue head and accessL3.
func (h *Hierarchy) prefetchRefused(core int, line mem.LineAddr) bool {
	return h.retry[core].pref.holds(h, line)
}

// NextEvent returns the earliest cycle at or after now at which the uncore
// can do real work, or ^uint64(0) when nothing is in flight anywhere. It
// returns now whenever this cycle's Tick would have side effects beyond
// per-cycle sampled statistics: a due demand-queue head that the L2 would
// accept, a prefetch-queue head the fill path would accept, a blocked
// writeback retry, or a non-idle DRAM at a bus-cycle boundary. A due head
// that would be refused is a stall, not an event: the refused replay moves
// nothing (no counter, prefetcher, replacement or queue state), and whatever
// unblocks it — a fill-queue pop, a DL1 fill, a DRAM scheduling decision, a
// prefetch issue, a new core request — is an event reported here or by a
// core. A head whose refusal memo holds is blocked without evaluating the
// predicate; the predicates still decide every head no memo covers, so a jump
// never waits for a refusal to be recomputed.
func (h *Hierarchy) NextEvent(now uint64) uint64 {
	if len(h.pendingWB) > 0 {
		return now
	}
	next := h.mem.NextEvent(now)
	if next <= now {
		return now
	}
	next = min(next, h.l3fq.minKnown)
	for c := range h.l2fq {
		// A refused issueQueuedPrefetch changes nothing at all (the entry it
		// takes from the pool goes straight back).
		if line, ok := h.pq[c].front(); ok && !h.l2fq[c].full() && !h.prefetchRefused(c, line) && !h.l3Blocked(line, c) {
			return now // a queued prefetch will issue this cycle
		}
		next = min(next, h.l2fq[c].minKnown)
		if h.demandQ[c].len() > 0 {
			switch req := h.demandQ[c].front(); {
			case req.readyAt > now:
				if req.readyAt < next {
					next = req.readyAt
				}
			case !h.headRefused(c, req.line) && !h.demandBlocked(c, req.line):
				return now // the L2 will take the head this cycle
			}
		}
		for _, f := range h.dl1Fills[c] {
			if f.at < next {
				next = f.at
			}
		}
	}
	if next < now {
		return now
	}
	return next
}

// demandBlocked reports whether processL2Request would refuse a request for
// line from core this cycle. It mirrors the refusal paths without mutating
// anything; the lock-step test holds the two together.
func (h *Hierarchy) demandBlocked(core int, line mem.LineAddr) bool {
	if h.l2[core].Peek(line) != nil {
		return false
	}
	if e := h.l2fq[core].find(line); e != nil {
		return e.isPrefetch && !e.promoted && !h.cfg.LatePromotion
	}
	return h.l2fq[core].full() || h.l3Blocked(line, core)
}

// l3Blocked reports whether accessL3 would refuse a request for line from
// core: the line is neither in the L3 nor in flight to it, and the L3 fill
// queue or the DRAM read queue has no room.
func (h *Hierarchy) l3Blocked(line mem.LineAddr, core int) bool {
	if h.l3.Peek(line) != nil || h.l3fq.find(line) != nil {
		return false
	}
	return h.l3fq.full() || h.mem.ReadBlocked(line, core)
}

// drainL3Fills places memory data into the L3.
func (h *Hierarchy) drainL3Fills(now uint64) {
	for _, e := range h.l3fq.popReady(now) {
		h.placeL3(e.line, cache.InsertInfo{Core: e.core, IsPrefetch: e.isPrefetch && !e.promoted})
		h.pool.put(e)
	}
}

// fillL2 inserts the block e, arrived from core's L2 fill queue, into the L2,
// applying the mandatory tag check, and forwards it to the DL1 when a DL1
// miss waits on it (section 5.4). Any other block leaves the MSHRs alone: a
// demand still queued for the L2 holds its line's MSHR until its own fill.
func (h *Hierarchy) fillL2(core int, e *fillEntry, now uint64) {
	h.retry[core].priv++
	// The prefetch *bit* is only set when the block was not promoted to a
	// demand miss in the meantime, but the prefetcher's fill hook sees every
	// block its requests brought in — the BO prefetcher's RR insertion
	// happens at prefetch completion whether the prefetch turned out late or
	// not; lateness is what the learning measures.
	stillPrefetch := e.isPrefetch && !e.promoted
	ev, placed := h.l2[core].Place(e.line, cache.InsertInfo{Core: core, IsPrefetch: stillPrefetch})
	if placed {
		h.l2pf[core].OnFill(e.line, e.isPrefetch)
		if ev.Dirty() {
			h.placeL3(ev.Addr(), cache.InsertInfo{Core: core, Dirty: true})
		}
	} else if stillPrefetch {
		// The block arrived but is already cached: the mandatory tag check
		// dropped the fill (blocks must not be duplicated).
		h.stats.PrefDroppedTagCheck++
	}
	if e.fillL1 {
		h.insertDL1(core, e.line, now)
	}
	h.pool.put(e)
}

// drainDL1Fills inserts due blocks into core's DL1 (L2-hit data paths).
func (h *Hierarchy) drainDL1Fills(core int, now uint64) {
	fills := h.dl1Fills[core]
	if len(fills) == 0 {
		return
	}
	kept := fills[:0]
	for _, f := range fills {
		if f.at > now {
			kept = append(kept, f)
			continue
		}
		h.insertDL1(core, f.line, now)
	}
	h.dl1Fills[core] = kept
}

// insertDL1 takes line's MSHR register and places line into core's DL1 as
// the register says: dirty when a store missed on it, with the prefetch bit
// when a DL1 stride prefetch took it. Every request that holds an MSHR ends
// here, and nothing else releases one. An L2 hit resolved the completion
// when it was looked up; an L2 miss's data reaches the core now. It writes a
// dirty victim back into the L2 (write-back hierarchy), and a dirty L2 victim
// on to the L3.
func (h *Hierarchy) insertDL1(core int, line mem.LineAddr, now uint64) {
	h.retry[core].front++
	r := h.outstanding[core].take(line)
	if !r.done.Resolved() {
		r.done.resolve(now)
	}
	h.comps.release(r.done)
	ev, _ := h.dl1[core].Place(line, cache.InsertInfo{Core: core, IsPrefetch: r.l1pf, Dirty: r.markWrite})
	if !ev.Dirty() {
		return
	}
	if l2ev, _ := h.l2[core].Place(ev.Addr(), cache.InsertInfo{Core: core, Dirty: true}); l2ev.Dirty() {
		h.placeL3(l2ev.Addr(), cache.InsertInfo{Core: core, Dirty: true})
	}
}

// placeL3 places line into the shared L3: a memory fill, or a dirty L2
// victim written back (non-inclusive: it allocates if absent). A dirty L3
// victim goes on to DRAM.
func (h *Hierarchy) placeL3(line mem.LineAddr, info cache.InsertInfo) {
	h.shared++
	ev, placed := h.l3.Place(line, info)
	if !placed {
		return
	}
	if h.fivep != nil {
		h.fivep.NoteFill(info.Core)
	}
	if ev.Dirty() {
		h.writebackToDRAM(ev.Addr(), ev.Core())
	}
}

// writebackToDRAM queues a dirty L3 victim for memory, buffering when the
// write queue is full.
func (h *Hierarchy) writebackToDRAM(line mem.LineAddr, core int) {
	if !h.mem.EnqueueWrite(line, core) {
		h.pendingWB = append(h.pendingWB, wbReq{line: line, core: core})
	}
}

func (h *Hierarchy) retryWritebacks(uint64) {
	if len(h.pendingWB) == 0 {
		return
	}
	kept := h.pendingWB[:0]
	for _, wb := range h.pendingWB {
		if !h.mem.EnqueueWrite(wb.line, wb.core) {
			kept = append(kept, wb)
		}
	}
	h.pendingWB = kept
}

// processDemand lets up to two due core requests access core's L2 this
// cycle (the L2 is dual-ported for the core side in our model).
func (h *Hierarchy) processDemand(core int, now uint64) {
	for ports := 0; ports < 2; ports++ {
		q := &h.demandQ[core]
		if q.len() == 0 || q.front().readyAt > now {
			return
		}
		req := q.front()
		r := &h.retry[core]
		if h.headRefused(core, req.line) {
			h.memoHits.head[r.head.why]++
			return
		}
		if why, ok := h.processL2Request(core, req, now); !ok {
			// Blocked on a full queue downstream; retry next cycle.
			h.memoHits.headMisses++
			r.head = pathMemo{ok: !h.memoOff, why: why, line: req.line, priv: r.priv, shared: h.shared, reads: h.mem.ReadVersion()}
			return
		}
		q.pop()
	}
}

// processL2Request performs the L2 access for a core request. It returns
// false, and why, when the request must be retried (fill queue or read queue
// full, or a late prefetch it may not promote); the access and its hit or
// miss are counted only once it returns true.
func (h *Hierarchy) processL2Request(core int, req *coreReq, now uint64) (refusal, bool) {
	l2 := h.l2[core]
	if ln := l2.Lookup(req.line); ln != nil {
		h.stats.L2Hits++
		pfHit := ln.Prefetch()
		if pfHit {
			h.stats.L2PrefetchedHits++
		}
		ln.ClearPrefetch() // requested by the L1: reset the prefetch bit
		done := now + h.cfg.L2Latency
		h.outstanding[core].resolve(req.line, done)
		h.dl1Fills[core] = append(h.dl1Fills[core], dl1Fill{line: req.line, at: done})
		h.triggerL2Prefetcher(core, prefetch.AccessInfo{Line: req.line, Hit: true, PrefetchedHit: pfHit})
		return 0, true
	}

	// CAM search of the fill queue: merge onto an in-flight fill.
	if e := h.l2fq[core].find(req.line); e != nil {
		if e.isPrefetch && !e.promoted {
			if !h.cfg.LatePromotion {
				// Ablation: no promotion path; the request replays until
				// the prefetch fills the L2.
				return refusedL2FQ, false
			}
			e.promoted = true
			h.stats.PrefLatePromotions++
		}
		e.fillL1 = true // the block now goes on to the DL1, which releases req's MSHR
	} else {
		if h.l2fq[core].full() {
			return refusedL2FQ, false
		}
		e := h.pool.get()
		e.line, e.core, e.fillL1 = req.line, core, true
		if why, ok := h.accessL3(e, now, false); !ok {
			h.pool.put(e)
			return why, false
		}
		h.l2fq[core].push(e)
	}
	h.stats.L2Misses++
	h.triggerL2Prefetcher(core, prefetch.AccessInfo{Line: req.line, Hit: false})
	return 0, true
}

// accessL3 resolves where entry e's data comes from: L3 hit, an in-flight
// L3 fill, or a new DRAM read. It returns false, and which queue had no room,
// if a required queue is full (nothing is modified in that case). Its L3
// fill-queue search is the one place in-flight DRAM reads are deduplicated
// (the dram package doc says why).
func (h *Hierarchy) accessL3(e *fillEntry, now uint64, isPrefetch bool) (refusal, bool) {
	if h.l3.Lookup(e.line) != nil { // a real access: the replacement update
		h.stats.L3Hits++
		e.readyAt = now + h.cfg.L3Latency
		return 0, true
	}
	if l3e := h.l3fq.find(e.line); l3e != nil {
		if !isPrefetch && l3e.isPrefetch {
			l3e.promoted = true
		}
		e.readyAt = l3e.readyAt
		return 0, true
	}
	if h.l3fq.full() {
		return refusedL3FQ, false
	}
	if h.mem.ReadBlocked(e.line, e.core) {
		return refusedReads, false
	}
	l3e := h.pool.get()
	l3e.line, l3e.core, l3e.isPrefetch, l3e.readyAt = e.line, e.core, isPrefetch, ^uint64(0)
	h.mem.EnqueueRead(e.line, e.core, &l3e.read)
	h.stats.L3Misses++
	h.l3fq.push(l3e)
	e.readyAt = ^uint64(0)
	return 0, true
}

// triggerL2Prefetcher runs core's L2 prefetcher on an access and queues the
// requested prefetches.
func (h *Hierarchy) triggerL2Prefetcher(core int, a prefetch.AccessInfo) {
	for _, target := range h.l2pf[core].OnAccess(a) {
		if h.pq[core].contains(target) || h.l2fq[core].find(target) != nil {
			h.stats.PrefDroppedDup++
			continue
		}
		if h.preIssueTagCheck[core] && h.l2[core].Peek(target) != nil {
			h.stats.PrefDroppedDup++
			continue
		}
		if h.pq[core].push(target) {
			h.stats.PrefCancelled++
		}
		h.stats.PrefIssued++
	}
}

// issueQueuedPrefetch moves at most one prefetch per cycle from core's
// prefetch queue into the fill path (prefetches have the lowest priority
// for accessing the L3, section 5.4). The queue head is only removed once
// the downstream accepts it, so a blocked prefetch keeps its age.
func (h *Hierarchy) issueQueuedPrefetch(core int, now uint64) {
	if h.pq[core].empty() || h.l2fq[core].full() {
		return
	}
	line, _ := h.pq[core].front()
	m := &h.retry[core].pref
	if h.prefetchRefused(core, line) {
		h.memoHits.pref[m.why]++
		return // a refused prefetch moves nothing
	}
	e := h.pool.get()
	e.line, e.core, e.isPrefetch = line, core, true
	if why, ok := h.accessL3(e, now, true); !ok {
		h.pool.put(e) // downstream full: leave the request queued
		h.memoHits.prefMisses++
		*m = pathMemo{ok: !h.memoOff, why: why, line: line, shared: h.shared, reads: h.mem.ReadVersion()}
		return
	}
	h.pq[core].pop()
	h.l2fq[core].push(e)
}

// Drained reports whether every queue in the hierarchy is empty (used by
// tests to run the system dry).
func (h *Hierarchy) Drained() bool {
	if h.l3fq.len() > 0 || len(h.pendingWB) > 0 || !h.mem.Idle() {
		return false
	}
	for c := range h.l2fq {
		if h.l2fq[c].len() > 0 || h.demandQ[c].len() > 0 || !h.pq[c].empty() || len(h.dl1Fills[c]) > 0 {
			return false
		}
		if h.outstanding[c].len() > 0 {
			return false
		}
	}
	return true
}
