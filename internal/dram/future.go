package dram

// Future is the completion handle of an in-flight memory request. A queued
// DRAM read carries a pending Future, and the controller resolves it, with
// the cycle at which the data transfer completes, in the Tick that issues
// the read; the caller reads it once that Tick returns (Memory.ReadVersion
// tells it a read was issued). The uncore also resolves the futures it
// hands to cores, when their fills arrive.
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

// DoneBy reports whether the request has completed at or before now.
func (f *Future) DoneBy(now uint64) bool { return f.resolved && f.cycle <= now }

// arenaSlab is the number of futures carved per heap allocation.
const arenaSlab = 4096

// Arena hands out Futures carved from slab allocations, so the steady-state
// miss path costs one heap allocation per slab instead of one per request.
// Individual futures are never recycled — the uncore aliases the futures it
// hands to cores through MSHR merges and fill-queue waiters, so no single
// release point exists — but a slab is collected as a unit once every future
// carved from it has been dropped.
type Arena struct {
	slab []Future
}

// Pending returns an unresolved future carved from the arena.
func (a *Arena) Pending() *Future {
	if len(a.slab) == 0 {
		//bovet:allow hotalloc one slab allocation is amortized over arenaSlab requests; that is the arena's whole point
		a.slab = make([]Future, arenaSlab)
	}
	f := &a.slab[0]
	a.slab = a.slab[1:]
	return f
}
