package cpu

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stride"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// listGen replays a fixed instruction slice, then pads with ALU ops.
type listGen struct {
	insts []trace.Inst
	idx   int
}

func (g *listGen) Name() string { return "list" }
func (g *listGen) Next() trace.Inst {
	if g.idx < len(g.insts) {
		i := g.insts[g.idx]
		g.idx++
		return i
	}
	return trace.Inst{Op: trace.OpALU, PC: 0x10}
}

func newTestSystem(insts []trace.Inst) (*Core, *uncore.Hierarchy) {
	cfg := uncore.DefaultConfig(1, mem.Page4K)
	h := uncore.New(cfg,
		func(int) prefetch.L2Prefetcher { return prefetch.None{} },
		func(int) prefetch.L1Prefetcher { return stride.New() },
		nil)
	c := New(0, DefaultConfig(), h, &listGen{insts: insts})
	return c, h
}

// runCycles advances core+hierarchy together.
func runCycles(c *Core, h *uncore.Hierarchy, n uint64) {
	for now := uint64(0); now < n; now++ {
		c.Cycle(now)
		h.Tick(now)
	}
}

// runToRetired advances core+hierarchy from cycle 0 until the core has
// retired n instructions, returning the cycle the last of them retired at.
// A machine that has not got there after 100,000 cycles fails the test.
func runToRetired(t *testing.T, c *Core, h *uncore.Hierarchy, n uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < 100_000; now++ {
		c.Cycle(now)
		h.Tick(now)
		if c.Retired >= n {
			return now
		}
	}
	t.Fatalf("%d of %d instructions retired after 100,000 cycles", c.Retired, n)
	return 0
}

func TestALURetirementRate(t *testing.T) {
	c, h := newTestSystem(nil)
	runCycles(c, h, 1000)
	// Pure ALU stream: IPC should approach the pipeline width.
	ipc := float64(c.Retired) / 1000
	if ipc < 3.5 {
		t.Errorf("ALU-only IPC = %.2f, want close to width 4", ipc)
	}
}

func TestLoadMissStallsRetirement(t *testing.T) {
	insts := []trace.Inst{{Op: trace.OpLoad, PC: 0x20, VA: 0x100000}}
	c, h := newTestSystem(insts)
	runCycles(c, h, 80)
	// The load misses everything; within 80 cycles it cannot retire, and
	// the ROB must have filled behind it (4-wide dispatch fills 256 slots
	// in 64 cycles).
	if c.Retired != 0 {
		t.Errorf("retired %d instructions while the head load was outstanding", c.Retired)
	}
	if c.ROBOccupancy() != DefaultConfig().ROBSize {
		t.Errorf("ROB occupancy = %d, want full %d", c.ROBOccupancy(), DefaultConfig().ROBSize)
	}
	runCycles(c, h, 100000)
	if c.Retired == 0 {
		t.Error("nothing ever retired")
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	// Two widely separated lines, independent: total time should be near
	// one miss latency, not two.
	single := []trace.Inst{{Op: trace.OpLoad, PC: 0x20, VA: 0x100000}}
	c1, h1 := newTestSystem(single)
	t1 := runToRetired(t, c1, h1, 1)

	double := []trace.Inst{
		{Op: trace.OpLoad, PC: 0x20, VA: 0x100000},
		{Op: trace.OpLoad, PC: 0x24, VA: 0x900000},
	}
	c2, h2 := newTestSystem(double)
	t2 := runToRetired(t, c2, h2, 2)
	if t2 > t1+t1/2 {
		t.Errorf("two independent misses took %d cycles vs %d for one: no overlap", t2, t1)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	indep := []trace.Inst{
		{Op: trace.OpLoad, PC: 0x20, VA: 0x100000},
		{Op: trace.OpLoad, PC: 0x24, VA: 0x900000},
	}
	dep := []trace.Inst{
		{Op: trace.OpLoad, PC: 0x20, VA: 0x100000},
		{Op: trace.OpLoad, PC: 0x24, VA: 0x900000, DepPrevLoad: true},
	}
	finish := func(insts []trace.Inst) uint64 {
		c, h := newTestSystem(insts)
		return runToRetired(t, c, h, 2)
	}
	ti, td := finish(indep), finish(dep)
	if td < ti+ti/2 {
		t.Errorf("dependent loads (%d cycles) not meaningfully slower than independent (%d)", td, ti)
	}
}

func TestStoreDoesNotBlockRetirement(t *testing.T) {
	insts := []trace.Inst{{Op: trace.OpStore, PC: 0x20, VA: 0x100000}}
	c, h := newTestSystem(insts)
	runCycles(c, h, 50)
	if c.Retired == 0 {
		t.Error("store blocked retirement despite the store buffer")
	}
}

func TestRetireUpdatesStridePrefetcher(t *testing.T) {
	// Retiring loads must reach the hierarchy's RetireMemOp: a constant
	// 64B stride should eventually make the stride prefetcher issue.
	var insts []trace.Inst
	for i := 0; i < 80; i++ {
		insts = append(insts, trace.Inst{Op: trace.OpLoad, PC: 0x40, VA: mem.Addr(0x200000 + i*64)})
		for j := 0; j < 10; j++ {
			insts = append(insts, trace.Inst{Op: trace.OpALU, PC: 0x44})
		}
	}
	c, h := newTestSystem(insts)
	runCycles(c, h, 300000)
	if h.Stats().StridePrefIssued == 0 {
		t.Error("stride prefetcher never triggered through the retire path")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() uint64 {
		c, h := newTestSystem(nil)
		g := trace.MustWorkload("403.gcc", 7)
		c.gen = g
		runCycles(c, h, 20000)
		return c.Retired
	}
	if run() != run() {
		t.Error("identical runs retired different instruction counts")
	}
}
