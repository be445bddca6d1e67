package dram

import (
	"bopsim/internal/cache"
	"bopsim/internal/mem"
)

// request is one read or write in a controller queue.
type request struct {
	line   mem.LineAddr
	core   int
	loc    Location
	seq    uint64 // arrival order, for FCFS tie-breaking
	future *Future
	write  bool
}

// bankState tracks one DRAM bank's open row and command timing. Row-buffer
// hits to an open row pipeline at the data-bus rate (CAS-to-CAS is bounded
// by tBURST via the shared bus); row changes pay precharge + activate and
// respect tRAS/tRTP/tWR before the precharge may start.
type bankState struct {
	openRow    int64  // -1 = closed (precharged)
	rowOpenAt  uint64 // cycle the open row's data becomes CAS-able (ACT+tRCD)
	preReadyAt uint64 // earliest cycle a precharge may start (tRAS/tRTP/tWR)
}

// Stats are the per-controller event counts used by Figure 13 and the
// fairness experiments.
type Stats struct {
	Reads        uint64
	Writes       uint64
	RowHits      uint64
	RowClosed    uint64
	RowConflicts uint64
	UrgentReads  uint64
	WriteBursts  uint64
	MergedReads  uint64
	PerCoreReads []uint64
}

// controller is one memory channel: per-core read/write queues, bank and
// bus availability, and the steady/urgent FR-FCFS scheduler of section 5.3.
type controller struct {
	p      Params
	banks  []bankState
	readQ  [][]*request // [core][...]
	writeQ [][]*request
	// fair holds one 7-bit proportional counter per core, incremented when
	// a read from that core is selected for issue.
	fair          *cache.PropCounters
	served        int
	busFreeAt     uint64
	writesInBatch int
	seq           uint64
	pendingReads  int
	pendingWrites int
	stats         Stats
	// freeReqs is a free list of request objects; a request returns to it
	// when it is issued, so steady-state traffic allocates none.
	freeReqs []*request
	// readVersion is the owning Memory's counter (see Memory.ReadVersion).
	readVersion *uint64
}

func (c *controller) newRequest() *request {
	if n := len(c.freeReqs); n > 0 {
		r := c.freeReqs[n-1]
		c.freeReqs = c.freeReqs[:n-1]
		return r
	}
	//bovet:allow hotalloc free-list miss only while the queues grow toward steady state; every issued request is recycled
	return &request{}
}

func (c *controller) release(r *request) {
	*r = request{}
	c.freeReqs = append(c.freeReqs, r)
}

func newController(p Params, readVersion *uint64) *controller {
	c := &controller{
		p:           p,
		readVersion: readVersion,
		banks:       make([]bankState, p.Banks),
		readQ:       make([][]*request, p.NumCores),
		writeQ:      make([][]*request, p.NumCores),
		fair:        cache.NewPropCounters(p.NumCores, 7),
	}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	c.stats.PerCoreReads = make([]uint64, p.NumCores)
	return c
}

// enqueueRead adds a read for line on behalf of core. If the same line is
// already pending in any read queue of this channel, the new request is
// merged onto the existing future (the paper's associative search before
// insertion, footnote 13) and the existing Future is returned. It returns
// nil when core's read queue is full; the caller must retry later.
func (c *controller) enqueueRead(line mem.LineAddr, core int, fut *Future) *Future {
	if r := c.pendingRead(line); r != nil {
		c.stats.MergedReads++
		return r.future
	}
	if len(c.readQ[core]) >= c.p.ReadQueueLen {
		return nil
	}
	c.seq++
	r := c.newRequest()
	r.line, r.core, r.loc, r.seq, r.future = line, core, MapAddress(line), c.seq, fut
	c.readQ[core] = append(c.readQ[core], r)
	c.pendingReads++
	*c.readVersion++
	return fut
}

// pendingRead returns the queued read of line in any core's read queue of
// this channel, or nil (the associative search before insertion).
func (c *controller) pendingRead(line mem.LineAddr) *request {
	for _, q := range c.readQ {
		for _, r := range q {
			if r.line == line {
				return r
			}
		}
	}
	return nil
}

// readBlocked reports, without touching anything, whether enqueueRead would
// refuse: core's read queue is full and there is no pending read of line to
// merge onto.
func (c *controller) readBlocked(line mem.LineAddr, core int) bool {
	return len(c.readQ[core]) >= c.p.ReadQueueLen && c.pendingRead(line) == nil
}

// enqueueWrite adds a write-back; it reports false when the queue is full.
func (c *controller) enqueueWrite(line mem.LineAddr, core int) bool {
	if len(c.writeQ[core]) >= c.p.WriteQueueLen {
		return false
	}
	c.seq++
	r := c.newRequest()
	r.line, r.core, r.loc, r.seq, r.write = line, core, MapAddress(line), c.seq, true
	c.writeQ[core] = append(c.writeQ[core], r)
	c.pendingWrites++
	return true
}

func (c *controller) idle() bool { return c.pendingReads == 0 && c.pendingWrites == 0 }

// rowHit reports whether r targets the currently open row of its bank.
func (c *controller) rowHit(r *request) bool {
	return c.banks[r.loc.Bank].openRow == int64(r.loc.Row)
}

// pickRead returns the index of the request to issue from q under FR-FCFS:
// the oldest row-hit request if any, else the oldest request.
func (c *controller) pickRead(q []*request) int {
	best, bestHit := -1, false
	for i, r := range q {
		hit := c.rowHit(r)
		switch {
		case best < 0:
			best, bestHit = i, hit
		case hit && !bestHit:
			best, bestHit = i, true
		case hit == bestHit && r.seq < q[best].seq:
			best = i
		}
	}
	return best
}

// pickWrite selects a write from any core's write queue, preferring row
// hits (out-of-order write draining for row locality, section 5.3).
func (c *controller) pickWrite() (core, idx int) {
	core, idx = -1, -1
	bestHit := false
	var bestSeq uint64
	for cr, q := range c.writeQ {
		for i, r := range q {
			hit := c.rowHit(r)
			switch {
			case core < 0, hit && !bestHit, hit == bestHit && r.seq < bestSeq:
				core, idx, bestHit, bestSeq = cr, i, hit, r.seq
			}
		}
	}
	return core, idx
}

func remove(q []*request, i int) []*request { return append(q[:i], q[i+1:]...) }

// anyWriteQueueFull reports whether some core's write queue is full, which
// both triggers a write burst and permits changing the served core.
func (c *controller) anyWriteQueueFull() bool {
	for _, q := range c.writeQ {
		if len(q) >= c.p.WriteQueueLen {
			return true
		}
	}
	return false
}

// laggingCore returns the core with the smallest fairness counter among
// cores with a non-empty read queue, or -1 if no reads are pending.
func (c *controller) laggingCore() int {
	best := -1
	for core := range c.readQ {
		if len(c.readQ[core]) == 0 {
			continue
		}
		if best < 0 || c.fair.Value(core) < c.fair.Value(best) {
			best = core
		}
	}
	return best
}

// schedule is called once per bus cycle and selects at most one request.
func (c *controller) schedule(now uint64) {
	if c.idle() {
		return
	}
	// Continue an in-progress write burst first.
	if c.writesInBatch > 0 && c.pendingWrites > 0 {
		c.issueWrite(now)
		return
	}
	c.writesInBatch = 0

	// Urgent mode preempts steady mode: serve the lagging core when it has
	// fallen too far behind the served core (section 5.3; the paper also
	// gates on L3 fill-queue space, which we approximate as always true).
	// served can be -1 right after a write burst forced re-election.
	if lag := c.laggingCore(); c.served >= 0 && lag >= 0 && lag != c.served {
		if c.fair.Value(c.served) > c.fair.Value(lag) &&
			c.fair.Value(c.served)-c.fair.Value(lag) > c.p.UrgentThreshold {
			c.stats.UrgentReads++
			c.issueRead(lag, now)
			return
		}
	}

	// A full write queue forces a write burst and permits re-electing the
	// served core afterwards.
	if c.anyWriteQueueFull() {
		c.writesInBatch = c.p.WriteBatch
		c.served = -1 // force re-election on the next read
		c.issueWrite(now)
		return
	}

	// Steady mode: keep serving the served core while it has a pending read
	// hitting an open row; otherwise elect the core with the smallest
	// fairness counter among those with pending reads.
	if c.pendingReads > 0 {
		if c.served >= 0 && len(c.readQ[c.served]) > 0 {
			if i := c.pickRead(c.readQ[c.served]); i >= 0 && c.rowHit(c.readQ[c.served][i]) {
				c.issueReadIdx(c.served, i, now)
				return
			}
		}
		next := c.laggingCore()
		c.served = next
		c.issueRead(next, now)
		return
	}

	// No reads pending: drain writes in a batch.
	if c.pendingWrites > 0 {
		c.writesInBatch = c.p.WriteBatch
		c.issueWrite(now)
	}
}

func (c *controller) issueRead(core int, now uint64) {
	i := c.pickRead(c.readQ[core])
	if i < 0 {
		return
	}
	c.issueReadIdx(core, i, now)
}

func (c *controller) issueReadIdx(core, i int, now uint64) {
	r := c.readQ[core][i]
	c.readQ[core] = remove(c.readQ[core], i)
	c.pendingReads--
	*c.readVersion++
	c.fair.Inc(core)
	c.stats.Reads++
	c.stats.PerCoreReads[core]++
	done := c.access(r, now)
	r.future.Resolve(done + c.p.ExtraLatency)
	c.release(r)
}

func (c *controller) issueWrite(now uint64) {
	core, i := c.pickWrite()
	if core < 0 {
		c.writesInBatch = 0
		return
	}
	r := c.writeQ[core][i]
	c.writeQ[core] = remove(c.writeQ[core], i)
	c.pendingWrites--
	c.stats.Writes++
	if c.writesInBatch > 0 {
		c.writesInBatch--
	}
	c.stats.WriteBursts++
	c.access(r, now)
	c.release(r)
}

// access performs the bank/bus timing for request r starting no earlier
// than now and returns the cycle at which the data transfer completes.
func (c *controller) access(r *request, now uint64) uint64 {
	br := uint64(c.p.BusRatio)
	bank := &c.banks[r.loc.Bank]

	switch {
	case bank.openRow == int64(r.loc.Row):
		c.stats.RowHits++
	case bank.openRow < 0:
		// Closed bank: activate immediately.
		c.stats.RowClosed++
		act := now
		bank.rowOpenAt = act + uint64(c.p.TRCD)*br
		bank.preReadyAt = act + uint64(c.p.TRAS)*br
	default:
		// Conflict: precharge (once allowed), then activate.
		c.stats.RowConflicts++
		pre := max64(now, bank.preReadyAt)
		act := pre + uint64(c.p.TRP)*br
		bank.rowOpenAt = act + uint64(c.p.TRCD)*br
		bank.preReadyAt = act + uint64(c.p.TRAS)*br
	}
	bank.openRow = int64(r.loc.Row)

	cas := uint64(c.p.TCL) * br
	if r.write {
		cas = uint64(c.p.TCWL) * br
	}
	cmd := max64(now, bank.rowOpenAt)
	// CAS-to-CAS pipelining: consecutive column accesses to open rows are
	// rate-limited only by the shared data bus (tBURST per transfer).
	dataStart := max64(cmd+cas, c.busFreeAt)
	dataEnd := dataStart + uint64(c.p.TBURST)*br
	c.busFreeAt = dataEnd
	if r.write {
		// Write recovery delays any subsequent precharge of this bank.
		bank.preReadyAt = max64(bank.preReadyAt, dataEnd+uint64(c.p.TWR)*br)
	} else {
		// Read-to-precharge spacing.
		bank.preReadyAt = max64(bank.preReadyAt, cmd+uint64(c.p.TRTP)*br)
	}
	return dataEnd
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
