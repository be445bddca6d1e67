// Package cpu provides the out-of-order core timing model driving the
// memory hierarchy. It is deliberately simple — a reorder buffer with
// bounded dispatch and retire widths and dependence-aware load issue — but
// it captures what matters for prefetching studies: memory-level
// parallelism is bounded by the ROB, independent misses overlap, dependent
// (pointer-chase) loads serialize, and a late prefetch stalls retirement
// for exactly the remaining latency. The paper's own simulator is likewise
// trace-driven without wrong-path effects (section 5).
package cpu

import (
	"fmt"

	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// Config sets the core's pipeline shape. The defaults follow Table 1 in
// spirit; widths are "effective" (post-dependence) rather than peak decode
// widths since the model does not track ALU dependences.
type Config struct {
	DispatchWidth int
	RetireWidth   int
	ROBSize       int
	ALULatency    uint64
}

// DefaultConfig returns the baseline core model.
func DefaultConfig() Config {
	return Config{DispatchWidth: 4, RetireWidth: 4, ROBSize: 256, ALULatency: 1}
}

// robEntry is one in-flight instruction. Entries live in a fixed ring
// buffer, so "pointers" between them are (slot, seq) pairs: seq is a
// per-entry generation tag bumped at dispatch, and a reference whose seq no
// longer matches the slot's current entry points at an instruction that has
// retired — which, for the load dependences tracked here, means it is done.
type robEntry struct {
	isMem   bool
	isLoad  bool
	issued  bool
	isWrite bool
	pc      uint64
	va      mem.Addr
	seq     uint64
	doneAt  uint64       // completion cycle when fut is nil (ALU, stores, cache-hit loads)
	fut     *dram.Future // in-flight load completion (nil once known)
	depSlot int32        // ring slot of the load this entry's address depends on (-1: none)
	depSeq  uint64
}

// Core is one simulated core executing a trace.Generator.
type Core struct {
	ID   int
	cfg  Config
	hier *uncore.Hierarchy
	gen  trace.Generator

	// In-flight machinery below is deliberately absent from the checkpoint
	// codec: SaveState refuses unless Quiesced() (ROB empty, nothing
	// pending), so at every legal checkpoint these hold no information.
	//bovet:allow statecodec ROB is empty at every legal checkpoint (SaveState requires Quiesced)
	rob []robEntry // ring buffer of cfg.ROBSize entries
	//bovet:allow statecodec ROB is empty at every legal checkpoint (SaveState requires Quiesced)
	robHead int
	robLen  int
	//bovet:allow statecodec generation tags only order in-flight entries, of which a quiesced core has none
	seq     uint64  // next generation tag
	waiting []int32 // slots of dispatched loads not yet issued (dep or MSHR full)
	//bovet:allow statecodec barrier bookkeeping; engine.Restore rebuilds the barrier from Options
	paused bool // dispatch frozen (warmup-barrier drain)

	lastLoadSlot int32 // most recent load, for DepPrevLoad chaining (-1: none)
	//bovet:allow statecodec chains dependencies onto in-flight loads, of which a quiesced core has none
	lastLoadSeq uint64

	pending    trace.Inst // fetched instruction that could not dispatch (MSHRs full)
	hasPending bool

	// Retired counts retired instructions; Cycles is advanced by the
	// simulation driver via Cycle calls.
	Retired uint64
}

// New builds a core bound to a hierarchy and an instruction stream.
func New(id int, cfg Config, hier *uncore.Hierarchy, gen trace.Generator) *Core {
	return &Core{
		ID: id, cfg: cfg, hier: hier, gen: gen,
		rob:          make([]robEntry, cfg.ROBSize),
		lastLoadSlot: -1,
	}
}

// Cycle advances the core by one clock: retire, issue waiting loads, then
// dispatch new instructions. A driver may skip the cycles NextEvent lets it
// without telling the core: a stalled dispatch's replay moves nothing, so
// skipping it is free.
//
//bovet:hotpath
func (c *Core) Cycle(now uint64) {
	c.retire(now)
	c.issueWaiting(now)
	c.dispatch(now)
}

func (e *robEntry) done(now uint64) bool {
	if e.isLoad {
		if !e.issued {
			return false
		}
		if e.fut != nil {
			return e.fut.DoneBy(now)
		}
	}
	return e.doneAt <= now
}

// readyTime returns the cycle the entry completes, when that is already
// known. It is unknown for loads not yet issued and loads whose future has
// not resolved; those complete via a hierarchy or DRAM event.
func (e *robEntry) readyTime() (uint64, bool) {
	if e.isLoad {
		if !e.issued {
			return 0, false
		}
		if e.fut != nil {
			if !e.fut.Resolved() {
				return 0, false
			}
			return e.fut.Cycle(), true
		}
	}
	return e.doneAt, true
}

// depEntry returns the entry e's address depends on, or nil when the
// dependence is absent or already retired (a retired load is done).
func (c *Core) depEntry(e *robEntry) *robEntry {
	if e.depSlot < 0 {
		return nil
	}
	d := &c.rob[e.depSlot]
	if d.seq != e.depSeq {
		return nil // slot recycled: the dep retired long ago
	}
	return d
}

func (c *Core) retire(now uint64) {
	for n := 0; n < c.cfg.RetireWidth && c.robLen > 0; n++ {
		head := &c.rob[c.robHead]
		if !head.done(now) {
			return
		}
		if head.isMem {
			c.hier.RetireMemOp(c.ID, head.pc, head.va)
		}
		head.fut = nil // release the future; the seq tag stays for dep checks
		c.robHead++
		if c.robHead == c.cfg.ROBSize {
			c.robHead = 0
		}
		c.robLen--
		c.Retired++
	}
}

// issueWaiting sends dependence- or MSHR-stalled loads to the hierarchy
// once they are ready.
func (c *Core) issueWaiting(now uint64) {
	if len(c.waiting) == 0 {
		return
	}
	kept := c.waiting[:0]
	for _, slot := range c.waiting {
		e := &c.rob[slot]
		if d := c.depEntry(e); d != nil && !d.done(now) {
			kept = append(kept, slot)
			continue
		}
		done, fut, ok := c.hier.Demand(c.ID, e.pc, e.va, e.isWrite, now)
		if !ok {
			kept = append(kept, slot) // MSHRs full; retry next cycle
			continue
		}
		e.doneAt, e.fut = done, fut
		e.issued = true
	}
	c.waiting = kept
}

// push appends a new entry at the ring tail and returns its slot.
func (c *Core) push(e robEntry) int32 {
	slot := c.robHead + c.robLen
	if slot >= c.cfg.ROBSize {
		slot -= c.cfg.ROBSize
	}
	c.seq++
	e.seq = c.seq
	c.rob[slot] = e
	c.robLen++
	return int32(slot)
}

// lastLoad returns the most recent load's entry while it is still in
// flight, or nil when there is none or it has retired.
func (c *Core) lastLoad() *robEntry {
	if c.lastLoadSlot < 0 {
		return nil
	}
	d := &c.rob[c.lastLoadSlot]
	if d.seq != c.lastLoadSeq {
		return nil
	}
	return d
}

func (c *Core) dispatch(now uint64) {
	if c.paused {
		return
	}
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		if c.robLen >= c.cfg.ROBSize {
			return
		}
		var inst trace.Inst
		if c.hasPending {
			inst = c.pending
			c.hasPending = false
		} else {
			inst = c.gen.Next()
		}
		switch inst.Op {
		case trace.OpALU:
			c.push(robEntry{doneAt: now + c.cfg.ALULatency, pc: inst.PC})
		case trace.OpLoad:
			e := robEntry{isMem: true, isLoad: true, pc: inst.PC, va: inst.VA, depSlot: -1}
			if d := c.lastLoad(); inst.DepPrevLoad && d != nil && !d.done(now) {
				e.depSlot, e.depSeq = c.lastLoadSlot, c.lastLoadSeq
				slot := c.push(e)
				c.waiting = append(c.waiting, slot)
				c.lastLoadSlot, c.lastLoadSeq = slot, c.rob[slot].seq
			} else {
				done, fut, ok := c.hier.Demand(c.ID, inst.PC, inst.VA, false, now)
				if !ok {
					c.pending = inst
					c.hasPending = true
					return
				}
				e.doneAt, e.fut = done, fut
				e.issued = true
				slot := c.push(e)
				c.lastLoadSlot, c.lastLoadSeq = slot, c.rob[slot].seq
			}
		case trace.OpStore:
			// Stores retire through the store buffer without waiting for
			// the fill, but still generate the write-allocate traffic.
			_, _, ok := c.hier.Demand(c.ID, inst.PC, inst.VA, true, now)
			if !ok {
				c.pending = inst
				c.hasPending = true
				return
			}
			c.push(robEntry{
				isMem: true, pc: inst.PC, va: inst.VA, depSlot: -1,
				doneAt: now + c.cfg.ALULatency, isWrite: true,
			})
		}
	}
}

// dispatching reports whether dispatch runs at all this cycle.
func (c *Core) dispatching() bool { return !c.paused && c.robLen < c.cfg.ROBSize }

// pendingRefused reports whether all a running dispatch would do is replay the
// pending instruction's access and have it refused again, moving nothing in
// the hierarchy (uncore.Hierarchy.DispatchStalled).
func (c *Core) pendingRefused() bool {
	return c.hasPending && c.hier.DispatchStalled(c.ID, c.pending.PC, c.pending.VA)
}

// NextEvent returns the earliest cycle at or after now at which the core
// can make progress, or ^uint64(0) when no event is scheduled (progress, if
// any, will come from a hierarchy or DRAM completion). It returns now
// whenever the core would do real work this cycle — dispatching, attempting
// an issue, or retiring — because those paths have side effects (generator
// consumption, cache/TLB/prefetcher state updates) on every cycle they run.
// The one exception is a stalled dispatch: its replay of the pending access
// is refused and moves nothing, so skipping it is free. It is no event, and
// the core then reports what else it waits for.
//
//bovet:hotpath
func (c *Core) NextEvent(now uint64) uint64 {
	if c.dispatching() && !c.pendingRefused() {
		return now // dispatch will fetch, or send an access that may be taken
	}
	next := ^uint64(0)
	if c.robLen > 0 {
		if t, known := c.rob[c.robHead].readyTime(); known {
			if t <= now {
				return now // head retires this cycle
			}
			next = t
		}
	}
	for _, slot := range c.waiting {
		e := &c.rob[slot]
		d := c.depEntry(e)
		if d == nil || d.done(now) {
			return now // will attempt issue (side-effectful) this cycle
		}
		if t, known := d.readyTime(); known && t < next {
			next = t
		}
	}
	return next
}

// ROBOccupancy returns the current reorder-buffer fill, for tests.
func (c *Core) ROBOccupancy() int { return c.robLen }

// SetPaused freezes (true) or resumes (false) instruction dispatch. A
// paused core still retires and issues already-dispatched work, so running
// a paused machine drains its in-flight state — the warmup barrier pauses
// every core, waits for the pipeline and the uncore to run dry, and only
// then considers the machine checkpointable.
func (c *Core) SetPaused(p bool) { c.paused = p }

// Quiesced reports whether the core has no in-flight instructions: the ROB
// and the issue-waiting list are empty. A fetched-but-undispatched
// instruction (Pending in the state below) does not count — it is pure
// cursor state.
func (c *Core) Quiesced() bool { return c.robLen == 0 && len(c.waiting) == 0 }

// ClearDepChain drops the pointer-chase dependence anchor. The barrier
// calls it after the drain: every in-flight load has retired, so the anchor
// can only be a completed load — behaviourally identical to nil — and
// clearing it makes the drained state literally equal to a restored one.
func (c *Core) ClearDepChain() { c.lastLoadSlot = -1 }

// State is the serialized state of a quiesced core: its retired count, the
// fetched-but-undispatched instruction (if any) and the generator cursor.
type State struct {
	Retired uint64
	Pending *trace.Inst
	Gen     trace.GenState
}

// SaveState serializes the core. It reports an error when the core still
// has in-flight instructions (callers must drain first) or when its
// generator cannot be checkpointed.
func (c *Core) SaveState() (State, error) {
	if !c.Quiesced() {
		return State{}, fmt.Errorf("cpu: core %d has in-flight instructions, cannot checkpoint", c.ID)
	}
	sg, ok := c.gen.(trace.StatefulGenerator)
	if !ok {
		return State{}, fmt.Errorf("cpu: core %d generator %s does not support checkpointing", c.ID, c.gen.Name())
	}
	st := State{Retired: c.Retired, Gen: sg.SaveGenState()}
	if c.hasPending {
		p := c.pending
		st.Pending = &p
	}
	return st, nil
}

// RestoreState replaces a freshly constructed core's state with a
// previously saved one.
func (c *Core) RestoreState(st State) error {
	if !c.Quiesced() {
		return fmt.Errorf("cpu: core %d has in-flight instructions, cannot restore", c.ID)
	}
	sg, ok := c.gen.(trace.StatefulGenerator)
	if !ok {
		return fmt.Errorf("cpu: core %d generator %s does not support checkpointing", c.ID, c.gen.Name())
	}
	if err := sg.RestoreGenState(st.Gen); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.ID, err)
	}
	c.Retired = st.Retired
	c.hasPending = false
	if st.Pending != nil {
		c.pending = *st.Pending
		c.hasPending = true
	}
	c.lastLoadSlot = -1
	return nil
}
