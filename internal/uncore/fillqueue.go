package uncore

import (
	"bopsim/internal/dram"
	"bopsim/internal/mem"
)

// fillEntry is one slot of a fill queue: a block on its way into a cache.
// The tag and request type are associatively searchable (the paper stores
// them in a separate CAM) so that a later demand miss can be merged onto
// the in-flight request, promoting it from prefetch to demand (section 5.4).
//
// Entries are pooled by the owning Hierarchy (see entryPool): a queue holds
// the only live reference to its entries, so an entry returns to the free
// list the moment it is drained or its insertion is abandoned.
type fillEntry struct {
	line mem.LineAddr
	core int
	// readyAt is the cycle the block's data is available at this level:
	// known up front for an L3 hit, and ^uint64(0) while the block waits on
	// a DRAM read the controller has not issued yet. The Tick that issues the
	// read copies its arrival into every entry of the line (readsIssued).
	readyAt uint64
	// read is the completion handle an L3 fill-queue entry that missed hands
	// to DRAM with its read; the entry outlives the read, which is issued
	// before the entry can pop.
	read dram.Future
	// isPrefetch records the original request type; promoted flips the
	// effective type to demand without losing the information that the
	// block started as a prefetch (a promoted prefetch is a late prefetch).
	isPrefetch bool
	promoted   bool
	// fillL1 forwards the block to the DL1 when it fills the L2: a DL1 miss
	// (a demand or a DL1 stride prefetch) waits on it, and its line's MSHR
	// register, which insertDL1 takes, says how the DL1 copy is placed and
	// holds the completion the fill resolves.
	fillL1 bool
}

// entryPool is a free list of fillEntry objects, reused so the steady-state
// fill path allocates nothing.
type entryPool struct {
	free []*fillEntry
}

func (p *entryPool) get() *fillEntry {
	if n := len(p.free); n > 0 {
		e := p.free[n-1]
		p.free = p.free[:n-1]
		return e
	}
	//bovet:allow hotalloc pool miss is the warmup path; steady state reuses entries from the free list
	return &fillEntry{}
}

func (p *entryPool) put(e *fillEntry) {
	*e = fillEntry{}
	p.free = append(p.free, e)
}

// fillQueue is a bounded FIFO of fillEntry with CAM search by line address.
// The CAM scans lines, kept beside entries (lines[i] is entries[i].line),
// and only when filter does not prove the line absent: almost every search
// misses. minKnown, the minimum readyAt over the entries, lets the per-cycle
// drain prove that no entry is ready without touching one: an entry's
// readyAt changes once at most, from unknown to known, and only through
// arrive.
type fillQueue struct {
	entries []*fillEntry
	lines   []mem.LineAddr
	cap     int
	ready   []*fillEntry // scratch returned by popReady, reused across calls

	minKnown uint64 // earliest known arrival cycle (^uint64(0) if none)
	// filter has the bit of every line in lines. Entries leave only through
	// popReady's compaction, which rebuilds it, so an empty queue (every
	// queue at a checkpoint) has a zero filter.
	filter lineFilter
}

// lineFilter is a 256-bit summary of a set of lines: a line's bit is set
// while the line is in the set, so a clear bit proves it absent. Lines that
// share a bit make a set bit a maybe, never a clear one a mistake.
type lineFilter [4]uint64

// filterBit hashes a line to its bit (Fibonacci hashing: the top 8 bits of
// the product, so neighbouring lines and page-aligned strides spread).
func filterBit(l mem.LineAddr) uint { return uint(uint64(l) * 0x9e3779b97f4a7c15 >> 56) }

func (f *lineFilter) add(l mem.LineAddr) {
	b := filterBit(l)
	f[b>>6] |= 1 << (b & 63)
}

func (f *lineFilter) has(l mem.LineAddr) bool {
	b := filterBit(l)
	return f[b>>6]&(1<<(b&63)) != 0
}

func newFillQueue(capacity int) *fillQueue {
	return &fillQueue{
		entries:  make([]*fillEntry, 0, capacity),
		lines:    make([]mem.LineAddr, 0, capacity),
		cap:      capacity,
		minKnown: ^uint64(0),
	}
}

func (q *fillQueue) full() bool { return len(q.entries) >= q.cap }
func (q *fillQueue) len() int   { return len(q.entries) }

// push appends e; the caller must have checked full().
func (q *fillQueue) push(e *fillEntry) {
	if q.full() {
		panic("uncore: fill queue overflow")
	}
	q.entries = append(q.entries, e)
	q.lines = append(q.lines, e.line)
	q.filter.add(e.line)
	q.minKnown = min(q.minKnown, e.readyAt)
}

// find returns the entry for line, or nil (the CAM search).
func (q *fillQueue) find(line mem.LineAddr) *fillEntry {
	if !q.filter.has(line) {
		return nil
	}
	for i, l := range q.lines {
		if l == line {
			return q.entries[i]
		}
	}
	return nil
}

// arrive sets the arrival cycle of every entry for line that still waits on
// DRAM: the line's one read in flight has been issued and arrives at at.
func (q *fillQueue) arrive(line mem.LineAddr, at uint64) {
	if !q.filter.has(line) {
		return
	}
	for i, l := range q.lines {
		if e := q.entries[i]; l == line && e.readyAt == ^uint64(0) {
			e.readyAt = at
			q.minKnown = min(q.minKnown, at)
		}
	}
}

// popReady removes and returns entries whose data has arrived by now, in
// FIFO order. Fill queues are FIFOs for ordering, but fills become ready
// out of order (L3 hits overtake DRAM misses), so we sweep all ready
// entries. The returned slice is scratch owned by the queue, valid until
// the next popReady call; callers must release each entry to the pool when
// done with it.
func (q *fillQueue) popReady(now uint64) []*fillEntry {
	if now < q.minKnown {
		return q.ready[:0] // nothing can be ready; skip the scan
	}
	ready := q.ready[:0]
	n := 0
	q.minKnown = ^uint64(0)
	q.filter = lineFilter{}
	for _, e := range q.entries {
		if e.readyAt <= now {
			ready = append(ready, e)
			continue
		}
		q.entries[n], q.lines[n] = e, e.line
		n++
		q.minKnown = min(q.minKnown, e.readyAt)
		q.filter.add(e.line)
	}
	// Clear the tail so dropped entries do not linger past their release.
	clear(q.entries[n:])
	q.entries, q.lines = q.entries[:n], q.lines[:n]
	q.ready = ready
	return ready
}
