package dram

// Future is DRAM's completion handle for one read, and only that: the core's
// requests complete through the uncore's own records. A queued DRAM read
// carries a pending Future, and the controller resolves it, with the cycle at
// which the data transfer completes, in the Tick that issues the read; the
// caller reads it once that Tick returns (Memory.ReadVersion tells it a read
// was issued). The uncore embeds one in each L3 fill-queue entry that misses.
type Future struct {
	cycle    uint64
	resolved bool
}

// Pending returns an unresolved future.
func Pending() *Future { return &Future{} }

// Resolve marks the future complete at cycle.
func (f *Future) Resolve(cycle uint64) {
	f.cycle = cycle
	f.resolved = true
}

// Resolved reports whether the completion time is known.
func (f *Future) Resolved() bool { return f.resolved }

// Cycle returns the completion cycle; only meaningful once Resolved.
func (f *Future) Cycle() uint64 { return f.cycle }
