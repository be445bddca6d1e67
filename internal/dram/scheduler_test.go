package dram

import (
	"testing"

	"bopsim/internal/mem"
)

// linesOnChannel returns n distinct lines mapping to channel 0, stepping by
// step to vary banks/rows.
func linesOnChannel(n int, step mem.LineAddr) []mem.LineAddr {
	var out []mem.LineAddr
	for l := mem.LineAddr(0); len(out) < n; l += step {
		if MapAddress(l).Channel == 0 {
			out = append(out, l)
		}
	}
	return out
}

func TestWriteBurstTriggeredByFullQueue(t *testing.T) {
	p := DefaultParams(1)
	p.WriteQueueLen = 8
	p.WriteBatch = 4
	m := New(p)
	// Fill one channel's write queue to capacity while a read stream keeps
	// the controller busy.
	writes := linesOnChannel(8, 977)
	for _, l := range writes {
		if !m.EnqueueWrite(l, 0) {
			t.Fatal("write rejected below capacity")
		}
	}
	reads := linesOnChannel(16, 131)
	for _, l := range reads {
		m.EnqueueRead(l, 0, Pending())
	}
	var now uint64
	for ; !m.Idle() && now < 100000; now++ {
		m.Tick(now)
	}
	s := m.TotalStats()
	if s.Writes != 8 {
		t.Errorf("Writes = %d, want 8", s.Writes)
	}
}

func TestWritesDrainWhenNoReads(t *testing.T) {
	m := New(DefaultParams(1))
	for _, l := range linesOnChannel(5, 313) {
		m.EnqueueWrite(l, 0)
	}
	var now uint64
	for ; !m.Idle() && now < 100000; now++ {
		m.Tick(now)
	}
	if !m.Idle() {
		t.Fatal("writes never drained without read pressure")
	}
}

func TestRowHitsPreferredWithinServedCore(t *testing.T) {
	// Queue a row-conflict request first, then a row hit to the open row;
	// FR-FCFS must complete the row hit earlier despite arrival order.
	p := DefaultParams(1)
	m := New(p)
	// Open a row.
	warm := Pending()
	m.EnqueueRead(0, 0, warm)
	var now uint64
	for ; !doneBy(warm, now); now++ {
		m.Tick(now)
	}
	base := MapAddress(0)
	// Find a conflicting line (same channel+bank, different row) and a
	// row-hit line (adjacent to line 0).
	var conflict mem.LineAddr
	for l := mem.LineAddr(1); ; l++ {
		loc := MapAddress(l)
		if loc.Channel == base.Channel && loc.Bank == base.Bank && loc.Row != base.Row {
			conflict = l
			break
		}
	}
	fConf := Pending()
	fHit := Pending()
	m.EnqueueRead(conflict, 0, fConf)
	m.EnqueueRead(1, 0, fHit) // same row as line 0
	for ; !(fConf.Resolved() && fHit.Resolved()); now++ {
		m.Tick(now)
	}
	if fHit.Cycle() >= fConf.Cycle() {
		t.Errorf("row hit finished at %d, conflict at %d: FR-FCFS not honoured",
			fHit.Cycle(), fConf.Cycle())
	}
}

func TestPerCoreReadAccounting(t *testing.T) {
	m := New(DefaultParams(2))
	m.EnqueueRead(0, 0, Pending())
	m.EnqueueRead(64, 1, Pending())
	m.EnqueueRead(128, 1, Pending())
	var now uint64
	for ; !m.Idle() && now < 100000; now++ {
		m.Tick(now)
	}
	s := m.TotalStats()
	if s.PerCoreReads[0] != 1 || s.PerCoreReads[1] != 2 {
		t.Errorf("PerCoreReads = %v, want [1 2]", s.PerCoreReads)
	}
}

func TestExtraLatencyAppliedToReads(t *testing.T) {
	fast := DefaultParams(1)
	fast.ExtraLatency = 0
	slow := DefaultParams(1)
	slow.ExtraLatency = 500

	measure := func(p Params) uint64 {
		m := New(p)
		fut := Pending()
		m.EnqueueRead(0, 0, fut)
		for now := uint64(0); ; now++ {
			m.Tick(now)
			if fut.Resolved() {
				return fut.Cycle()
			}
		}
	}
	if d := measure(slow) - measure(fast); d != 500 {
		t.Errorf("ExtraLatency delta = %d, want 500", d)
	}
}
