package dram

import "bopsim/internal/mem"

// Memory is the full main-memory system: one controller per channel, with
// requests routed by the address mapping of section 5.3.
type Memory struct {
	p        Params
	channels []*controller
	// readVersion counts the changes to the read queues of every channel.
	// It is not machine state: only equality between two readings means
	// anything, so a restored memory need not resume the saved one's count.
	readVersion uint64
}

// New builds a memory system with the given parameters.
func New(p Params) *Memory {
	m := &Memory{p: p, channels: make([]*controller, Channels)}
	for i := range m.channels {
		m.channels[i] = newController(p, &m.readVersion)
	}
	return m
}

// Params returns the memory parameters.
func (m *Memory) Params() Params { return m.p }

// EnqueueRead queues a read of line for core. It returns fut, which the
// Tick that issues the read resolves with the completion cycle, or nil when
// the core's read queue on the line's channel is full (caller retries
// later). fut must stay valid until then. Two reads of one line are
// two requests: the uncore is the one place in-flight reads are
// deduplicated, by searching its L3 fill queue before it calls here.
func (m *Memory) EnqueueRead(line mem.LineAddr, core int, fut *Future) *Future {
	if !m.channels[MapAddress(line).Channel].enqueueRead(line, core, fut) {
		return nil
	}
	return fut
}

// ReadBlocked reports, without side effects, whether EnqueueRead would
// refuse (return nil for) a read of line by core right now: core's read
// queue on the line's channel is full. The answer can only change when a
// read is enqueued or a controller issues one, and the latter happens at a
// bus-cycle boundary that NextEvent reports.
func (m *Memory) ReadBlocked(line mem.LineAddr, core int) bool {
	return m.channels[MapAddress(line).Channel].readBlocked(core)
}

// ReadVersion moves whenever a read joins or leaves any read queue, so
// while it stands every ReadBlocked answer stands too, and a Tick across
// which it moves has issued a read and resolved its future.
func (m *Memory) ReadVersion() uint64 { return m.readVersion }

// EnqueueWrite queues a write-back of line for core; false when full.
func (m *Memory) EnqueueWrite(line mem.LineAddr, core int) bool {
	return m.channels[MapAddress(line).Channel].enqueueWrite(line, core)
}

// Tick advances the memory system to core cycle now. Controllers make one
// scheduling decision per bus cycle.
func (m *Memory) Tick(now uint64) {
	if now%uint64(m.p.BusRatio) != 0 {
		return
	}
	for _, c := range m.channels {
		c.schedule(now)
	}
}

// NextEvent returns the earliest cycle at or after now at which the memory
// system can do work: the next bus-cycle boundary while any request is
// queued, or ^uint64(0) when every controller is idle. Issued requests need
// no events — their completion cycles were computed at issue time, in the
// Tick that resolved their futures; only queued requests await scheduling
// decisions.
func (m *Memory) NextEvent(now uint64) uint64 {
	if m.Idle() {
		return ^uint64(0)
	}
	br := uint64(m.p.BusRatio)
	if rem := now % br; rem != 0 {
		return now + (br - rem)
	}
	return now
}

// Idle reports whether no requests are pending anywhere.
func (m *Memory) Idle() bool {
	for _, c := range m.channels {
		if !c.idle() {
			return false
		}
	}
	return true
}

// TotalStats sums the per-channel statistics.
func (m *Memory) TotalStats() Stats {
	var s Stats
	s.PerCoreReads = make([]uint64, m.p.NumCores)
	for _, c := range m.channels {
		s.Reads += c.stats.Reads
		s.Writes += c.stats.Writes
		s.RowHits += c.stats.RowHits
		s.RowClosed += c.stats.RowClosed
		s.RowConflicts += c.stats.RowConflicts
		s.UrgentReads += c.stats.UrgentReads
		for i, v := range c.stats.PerCoreReads {
			s.PerCoreReads[i] += v
		}
	}
	return s
}
