package uncore

// Completion is the core-visible completion of a DL1 miss: the request an
// MSHR sends toward the L2 (a demand miss or a DL1 stride prefetch) and every
// access merged onto it. It resolves with the cycle the data reaches the
// core: at an L2 hit, through its MSHR register, or when the L2 fill-queue
// entry the request waits on fills the DL1.
//
// Records come from a per-Hierarchy free list and are counted by reference.
// A record has exactly two kinds of holder: the MSHR register (released by
// insertDL1, which takes the register when the block fills the DL1), and
// each caller Demand hands it to, an MSHR merge included, which gives it
// back through Hierarchy.Release. Once the last holder lets go the record
// returns to the free list, so the steady-state miss path allocates nothing;
// a holder must not read it again.
type Completion struct {
	cycle    uint64
	resolved bool
	holders  int32
}

// Resolved reports whether the completion time is known.
func (c *Completion) Resolved() bool { return c.resolved }

// Cycle returns the completion cycle; only meaningful once Resolved.
func (c *Completion) Cycle() uint64 { return c.cycle }

// DoneBy reports whether the request has completed at or before now.
func (c *Completion) DoneBy(now uint64) bool { return c.resolved && c.cycle <= now }

func (c *Completion) resolve(cycle uint64) {
	c.cycle = cycle
	c.resolved = true
}

// retain adds a holder.
func (c *Completion) retain() { c.holders++ }

// completionPool is the free list completions are drawn from. live counts
// the records drawn and not yet returned: once every request has retired and
// every holder has let go (the warmup barrier, a drained machine whose
// callers gave back what they hold) it is 0.
type completionPool struct {
	free []*Completion
	live int
}

// get returns an unresolved record with the given number of holders.
func (p *completionPool) get(holders int32) *Completion {
	p.live++
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free = p.free[:n-1]
		c.holders = holders
		return c
	}
	//bovet:allow hotalloc pool miss is the warmup path; steady state reuses records from the free list
	return &Completion{holders: holders}
}

// release drops one holder of c, returning it to the free list with the
// last. Releasing a record no one holds panics: some holder let go twice.
func (p *completionPool) release(c *Completion) {
	if c.holders <= 0 {
		panic("uncore: completion released more often than it was held")
	}
	if c.holders--; c.holders > 0 {
		return
	}
	*c = Completion{}
	p.free = append(p.free, c)
	p.live--
}

// Release gives back a completion Demand handed the caller. Each one handed
// out is released exactly once, after its holder's last read of it.
func (h *Hierarchy) Release(c *Completion) { h.comps.release(c) }
