package stride

import (
	"testing"

	"bopsim/internal/mem"
)

// TestSteadyStateZeroAlloc pins the L1 stride prefetcher's hot-path cost:
// once the PC table exists, Update and Query allocate nothing.
// Guards the //bovet:hotpath roots with a runtime witness.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := New()
	pc, a := uint64(0x400), mem.Addr(0x10000)
	step := func() {
		p.Update(pc, a)
		p.Query(pc, a+64)
		a += 64
		pc = (pc + 4) % 0x800
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg != 0 {
		t.Errorf("steady-state Update+Query allocates %.3f objects/op, want 0", avg)
	}
}
