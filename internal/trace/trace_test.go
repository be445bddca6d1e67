package trace

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/rng"
)

func TestAllBenchmarksConstruct(t *testing.T) {
	if len(Benchmarks()) != 29 {
		t.Fatalf("%d benchmarks, want 29", len(Benchmarks()))
	}
	for _, name := range Benchmarks() {
		w, err := NewGenerator(Spec{Name: name}, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w.Name() != name {
			t.Errorf("Name() = %s, want %s", w.Name(), name)
		}
		for i := 0; i < 1000; i++ {
			inst := w.Next()
			if inst.Op != OpALU && inst.VA == 0 {
				t.Fatalf("%s: memory op with zero address", name)
			}
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := NewGenerator(Spec{Name: "999.nope"}, 1); err == nil {
		t.Error("unknown workload did not error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustWorkload did not panic")
		}
	}()
	MustWorkload("999.nope", 1)
}

func TestWorkloadDeterminism(t *testing.T) {
	a := MustWorkload("433.milc", 42)
	b := MustWorkload("433.milc", 42)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("divergence at instruction %d", i)
		}
	}
}

func TestWorkloadSeedsDiffer(t *testing.T) {
	a := MustWorkload("429.mcf", 1)
	b := MustWorkload("429.mcf", 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical streams")
	}
}

func TestMemoryFraction(t *testing.T) {
	w := MustWorkload("462.libquantum", 3)
	memOps := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if w.Next().Op != OpALU {
			memOps++
		}
	}
	frac := float64(memOps) / n * 1000
	if frac < 250 || frac > 350 {
		t.Errorf("libquantum memory ops per 1000 = %.0f, want about 300", frac)
	}
}

func TestStripesCoverAllLines(t *testing.T) {
	// A stripes component must eventually touch every line of its region
	// prefix (full next-line coverage, as the paper reports for 433/470).
	s := newStripes(0x4000, 0, 5, 1, 5*64*100, 8, 0)
	r := rng.New(1)
	seen := make(map[int64]bool)
	for i := 0; i < 5*100*4; i++ {
		inst := s.next(r)
		seen[int64(inst.VA)/64] = true
	}
	for line := int64(64); line < 5*64; line++ {
		if !seen[line] {
			t.Fatalf("line %d never touched by stripes", line)
		}
	}
}

func TestStripesPeriodicWithinStripe(t *testing.T) {
	// Within one stripe, consecutive positions are exactly S lines apart.
	s := newStripes(0x4000, 0, 32, 1, mem.Addr(32*64*1000), 4, 0)
	r := rng.New(2)
	var stripe0 []int64
	for i := 0; i < 32*50; i++ {
		inst := s.next(r)
		line := int64(inst.VA) / 64
		if line%32 == 0 { // stripe 0 lines
			stripe0 = append(stripe0, line)
		}
	}
	for i := 1; i < len(stripe0); i++ {
		if stripe0[i]-stripe0[i-1] != 32 {
			t.Fatalf("stripe-0 step %d: %d -> %d (want +32)",
				i, stripe0[i-1], stripe0[i])
		}
	}
}

func TestStripesPatternStrides(t *testing.T) {
	// With the [29,30,29] pattern, within-stripe steps follow the sequence.
	s := newStripesPattern(0x4000, 0, 1, []int64{29, 30, 29}, 1, mem.Addr(64*100000), 0, 0)
	r := rng.New(3)
	var lines []int64
	for i := 0; i < 9; i++ {
		lines = append(lines, int64(s.next(r).VA)/64)
	}
	want := []int64{29, 30, 29, 29, 30, 29, 29, 30}
	for i := 0; i < 8; i++ {
		if lines[i+1]-lines[i] != want[i] {
			t.Fatalf("step %d = %d, want %d", i, lines[i+1]-lines[i], want[i])
		}
	}
}

func TestChunkCompPerPCStride(t *testing.T) {
	// Each PC of a chunk component must see a constant stride equal to the
	// jump (so the DL1 stride prefetcher can lock on, as for 465.tonto).
	c := newChunk(0x4000, 0, 8, 512, mem.Addr(1<<20), 0)
	r := rng.New(4)
	lastVA := map[uint64]mem.Addr{}
	for i := 0; i < 200; i++ {
		inst := c.next(r)
		if prev, ok := lastVA[inst.PC]; ok {
			if int64(inst.VA)-int64(prev) != 512 {
				t.Fatalf("PC %#x stride = %d, want 512", inst.PC, int64(inst.VA)-int64(prev))
			}
		}
		lastVA[inst.PC] = inst.VA
	}
}

func TestRandomCompDependencyFlag(t *testing.T) {
	c := newRandom(0x4000, 1, 0, mem.Addr(1<<20), 0, true)
	r := rng.New(5)
	for i := 0; i < 50; i++ {
		inst := c.next(r)
		if inst.Op == OpLoad && !inst.DepPrevLoad {
			t.Fatal("pointer-chase load without dependency flag")
		}
	}
}

func TestThrasherIsStoreHeavySequential(t *testing.T) {
	th := MustWorkload("microthrash", 9)
	if th.Name() != "microthrash" {
		t.Errorf("name = %s", th.Name())
	}
	stores, loads := 0, 0
	var lastVA mem.Addr
	increasing := 0
	memOps := 0
	for i := 0; i < 10000; i++ {
		inst := th.Next()
		switch inst.Op {
		case OpStore:
			stores++
		case OpLoad:
			loads++
		default:
			continue
		}
		memOps++
		if inst.VA > lastVA {
			increasing++
		}
		lastVA = inst.VA
	}
	if loads != 0 {
		t.Errorf("thrasher issued %d loads; should be write-only", loads)
	}
	if stores == 0 {
		t.Fatal("thrasher issued no stores")
	}
	if float64(increasing)/float64(memOps) < 0.99 {
		t.Error("thrasher is not sequential")
	}
}

func TestRegionsDisjoint(t *testing.T) {
	if regionBase(1)-regionBase(0) < 256*mb {
		t.Error("component regions can overlap")
	}
}
