package cpu

import (
	"testing"
	"testing/quick"

	"bopsim/internal/mem"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// recordingGen tags each instruction with a sequence number in its PC so a
// retirement order check is possible.
type recordingGen struct {
	seq  uint64
	rand uint64
}

func (g *recordingGen) Name() string { return "recording" }
func (g *recordingGen) Next() trace.Inst {
	g.seq++
	g.rand = mem.Mix64(g.rand + g.seq)
	switch g.rand % 5 {
	case 0:
		return trace.Inst{Op: trace.OpLoad, PC: g.seq, VA: mem.Addr(g.rand % (1 << 28))}
	case 1:
		return trace.Inst{Op: trace.OpStore, PC: g.seq, VA: mem.Addr(g.rand % (1 << 28))}
	default:
		return trace.Inst{Op: trace.OpALU, PC: g.seq}
	}
}

// TestRetirementDisciplineProperty: whatever the interleaving of hits,
// misses and stores, the retired-instruction count must be monotonic and
// never grow by more than RetireWidth per cycle, and the ROB head (oldest
// entry) must always retire before younger entries (in-order retirement is
// structural: entries leave only from the front of the ROB slice).
func TestRetirementDisciplineProperty(t *testing.T) {
	f := func(seed uint16) bool {
		c, h := newTestSystem(nil)
		c.gen = &recordingGen{rand: uint64(seed)}
		for now := uint64(0); now < 3000; now++ {
			before := c.Retired
			c.Cycle(now)
			h.Tick(now)
			if c.Retired < before || c.Retired-before > uint64(c.cfg.RetireWidth) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestROBNeverExceedsCapacity(t *testing.T) {
	c, h := newTestSystem(nil)
	c.gen = &recordingGen{}
	for now := uint64(0); now < 5000; now++ {
		c.Cycle(now)
		h.Tick(now)
		if c.ROBOccupancy() > c.cfg.ROBSize {
			t.Fatalf("ROB occupancy %d exceeds %d at cycle %d",
				c.ROBOccupancy(), c.cfg.ROBSize, now)
		}
	}
}

func TestMSHRStallCounterAdvances(t *testing.T) {
	// A flood of independent misses must eventually stall dispatch on
	// MSHRs.
	c, h := newTestSystem(nil)
	g := &floodGen{}
	c.gen = g
	for now := uint64(0); now < 5000; now++ {
		c.Cycle(now)
		h.Tick(now)
	}
	if c.DispatchStallMSHR == 0 {
		t.Error("no MSHR stalls under a miss flood")
	}
}

// TestSkippedStallIsSettled: under the same miss flood, a driver that jumps
// over every cycle NextEvent lets it, telling the uncore and never the core
// (the engine's protocol), must end on the counters of one that runs every
// cycle: the core charges the stalled dispatches it was not cycled for by
// itself, at its next Cycle and at the closing Settle.
func TestSkippedStallIsSettled(t *testing.T) {
	const cycles = 20_000
	type outcome struct {
		stalls, retired uint64
		hier            uncore.Stats
	}
	run := func(skip bool) (o outcome, stallSkipped uint64) {
		c, h := newTestSystem(nil)
		c.gen = &floodGen{}
		for now := uint64(0); now < cycles; {
			if ne := min(c.NextEvent(now), h.NextEvent(now), cycles); skip && ne > now {
				h.AccountIdle(ne - now)
				if c.ROBOccupancy() < c.cfg.ROBSize {
					stallSkipped += ne - now
				}
				now = ne
				continue
			}
			c.Cycle(now)
			h.Tick(now)
			now++
		}
		c.Settle(cycles)
		return outcome{c.DispatchStallMSHR, c.Retired, h.Stats()}, stallSkipped
	}
	want, _ := run(false)
	got, stallSkipped := run(true)
	if got != want {
		t.Errorf("skipping driver ended on\n%+v\nper-cycle driver on\n%+v", got, want)
	}
	if stallSkipped == 0 || want.stalls == 0 {
		t.Errorf("%d cycles skipped across a stalled dispatch, %d stalls: the flood no longer stalls dispatch", stallSkipped, want.stalls)
	}
}

type floodGen struct{ n uint64 }

func (g *floodGen) Name() string { return "flood" }
func (g *floodGen) Next() trace.Inst {
	g.n++
	return trace.Inst{Op: trace.OpLoad, PC: 0x30, VA: mem.Addr(g.n * 4096)}
}
