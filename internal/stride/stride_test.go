package stride

import (
	"math/rand"
	"testing"

	"bopsim/internal/mem"
)

// train feeds n accesses at pc with the given byte stride starting at base,
// calling Update only (as if every access hit the DL1).
func train(p *Prefetcher, pc uint64, base mem.Addr, stride int64, n int) mem.Addr {
	a := base
	for i := 0; i < n; i++ {
		p.Update(pc, a)
		a = mem.Addr(int64(a) + stride)
	}
	return a
}

func TestConfidenceBuildsBeforePrefetch(t *testing.T) {
	p := New()
	a := train(p, 0x400, 0x10000, 64, 5)
	if _, ok := p.Query(0x400, a); ok {
		t.Error("prefetch issued with insufficient confidence")
	}
}

func TestPrefetchAfterFullConfidence(t *testing.T) {
	p := New()
	a := train(p, 0x400, 0x10000, 96, ConfidenceMax+2)
	pref, ok := p.Query(0x400, a)
	if !ok {
		t.Fatal("no prefetch from a fully confident entry")
	}
	want := mem.Addr(int64(a) + DistanceFactor*96)
	if pref != want {
		t.Errorf("prefetch address %#x, want %#x (current + 16*stride)", pref, want)
	}
}

func TestStrideChangeResetsConfidence(t *testing.T) {
	p := New()
	a := train(p, 0x400, 0x10000, 64, ConfidenceMax+2)
	p.Update(0x400, a+1000) // break the stride
	if _, ok := p.Query(0x400, a+1000+64); ok {
		t.Error("prefetch issued right after a stride break")
	}
}

func TestZeroStrideNeverPrefetches(t *testing.T) {
	p := New()
	for i := 0; i < ConfidenceMax+5; i++ {
		p.Update(0x400, 0x2000) // same address repeatedly
	}
	if _, ok := p.Query(0x400, 0x2000); ok {
		t.Error("prefetch issued for a zero stride")
	}
}

func TestNegativeStride(t *testing.T) {
	p := New()
	a := train(p, 0x400, 0x100000, -64, ConfidenceMax+2)
	pref, ok := p.Query(0x400, a)
	if !ok {
		t.Fatal("no prefetch on a negative stride")
	}
	if pref >= a {
		t.Errorf("negative-stride prefetch went forward: %#x >= %#x", pref, a)
	}
}

func TestFilterSuppressesRepeats(t *testing.T) {
	p := New()
	a := train(p, 0x400, 0x10000, 8, ConfidenceMax+2)
	// Stride 8 < line size: consecutive prefetch targets often share a
	// line; the 16-entry filter must suppress the duplicates.
	if _, ok := p.Query(0x400, a); !ok {
		t.Fatal("first prefetch missing")
	}
	p.Update(0x400, a)
	if _, ok := p.Query(0x400, a+8); ok {
		t.Error("duplicate same-line prefetch not filtered")
	}
	if p.Stats().Filtered == 0 {
		t.Error("filter counter did not advance")
	}
}

func TestTableLRUEviction(t *testing.T) {
	p := New()
	// Fill the table with TableEntries PCs, then add one more: the first
	// (least recently updated) must be gone.
	for pc := uint64(0); pc < TableEntries; pc++ {
		p.Update(0x1000+pc*4, mem.Addr(pc*0x100))
	}
	p.Update(0x9999, 0x500000)
	if e := p.lookup(0x1000); e != nil {
		t.Error("LRU entry survived eviction")
	}
	if e := p.lookup(0x9999); e == nil {
		t.Error("new entry missing")
	}
}

func TestDistinctPCsTrackIndependently(t *testing.T) {
	p := New()
	a1 := train(p, 0x400, 0x10000, 64, ConfidenceMax+2)
	var a2 mem.Addr = 0x800000
	for i := 0; i < ConfidenceMax+2; i++ {
		p.Update(0x800, a2)
		a2 += 128
	}
	if _, ok := p.Query(0x400, a1); !ok {
		t.Error("pc 0x400 lost confidence")
	}
	pref, ok := p.Query(0x800, a2)
	if !ok {
		t.Fatal("pc 0x800 not confident")
	}
	if want := a2 + DistanceFactor*128; pref != want {
		t.Errorf("pc 0x800 prefetch %#x, want %#x", pref, want)
	}
}

func TestQueryUnknownPC(t *testing.T) {
	p := New()
	if _, ok := p.Query(0xdead, 0x1000); ok {
		t.Error("prefetch from unknown PC")
	}
	if p.Stats().TableMiss != 1 {
		t.Error("table miss not counted")
	}
}

func TestQueryDoesNotUnderflow(t *testing.T) {
	p := New()
	// Large negative stride near address zero must not wrap.
	a := train(p, 0x400, 1<<20, -65536, ConfidenceMax+2)
	_, _ = p.Query(0x400, a) // may or may not prefetch; must not produce a huge address
	a = train(p, 0x404, 1<<10, -256, ConfidenceMax+4)
	if pref, ok := p.Query(0x404, a); ok && int64(pref) < 0 {
		t.Errorf("prefetch address underflowed: %#x", pref)
	}
}

// queryBeforeSplit is Query as it was before classify and charge were split
// out of it, kept as the reference the split is held to.
func queryBeforeSplit(p *Prefetcher, pc uint64, va mem.Addr) (mem.Addr, bool) {
	e := p.lookup(pc)
	if e == nil {
		p.stats.TableMiss++
		return 0, false
	}
	p.stats.TableHits++
	if e.conf < ConfidenceMax || e.stride == 0 {
		return 0, false
	}
	p.stats.Confident++
	target := mem.Addr(int64(va) + p.distance*e.stride)
	if int64(target) < 0 {
		return 0, false
	}
	if p.recentlyPrefetched(mem.LineOf(target)) {
		p.stats.Filtered++
		return 0, false
	}
	p.notePrefetched(mem.LineOf(target))
	p.stats.Issued++
	return target, true
}

// TestBulkQueryCharge holds the two halves of the split Query to each other
// over fuzzed table and filter states (a few PCs, strides that are zero,
// sub-line, large, negative and underflowing, queries near address zero):
// Query still moves exactly what it moved before the split; QuerySettled
// changes nothing; whenever it holds, n Query calls and one ChargeQueries(n)
// leave the same prefetcher, statistics included; and when it does not, one
// Query settles it, which is what bounds an unsettled retry to one cycle.
func TestBulkQueryCharge(t *testing.T) {
	strides := []int64{0, 8, 64, 96, 4096, -64, -65536}
	outcomes := map[outcome]int{}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dist := 1 + rng.Intn(20)
		p, ref := NewWithDistance(dist), NewWithDistance(dist)
		addr := map[uint64]mem.Addr{}
		for step := 0; step < 4000; step++ {
			pc := uint64(0x400 + 4*rng.Intn(10)) // ten PCs that stay in the table
			if rng.Intn(8) == 0 {
				pc = uint64(0x1000 + 4*rng.Intn(4*TableEntries)) // and a crowd that evicts
			}
			va, seen := addr[pc]
			next := int64(va) + strides[int(pc/4)%len(strides)]
			if !seen || next < 0 || rng.Intn(200) == 0 {
				next = int64(rng.Intn(1 << 22)) // a stride break
			}
			va = mem.Addr(next)
			if rng.Intn(3) > 0 {
				addr[pc] = va // a query in between is for the access about to retire
				p.Update(pc, va)
				ref.Update(pc, va)
				continue
			}
			before := *p
			settled := p.QuerySettled(pc, va)
			if *p != before {
				t.Fatalf("seed %d step %d: QuerySettled changed the prefetcher", seed, step)
			}
			o, _ := p.classify(pc, va)
			outcomes[o]++
			if settled {
				n := rng.Intn(5)
				bulk := *p
				bulk.ChargeQueries(pc, va, uint64(n))
				for i := 0; i < n; i++ {
					if _, ok := p.Query(pc, va); ok {
						t.Fatalf("seed %d step %d: a settled query issued a prefetch", seed, step)
					}
					queryBeforeSplit(ref, pc, va)
				}
				if *p != bulk {
					t.Fatalf("seed %d step %d: %d Query calls left\n%+v\nChargeQueries(%d) left\n%+v", seed, step, n, p.stats, n, bulk.stats)
				}
			} else {
				got, ok := p.Query(pc, va)
				want, wantOK := queryBeforeSplit(ref, pc, va)
				if !ok || got != want || !wantOK {
					t.Fatalf("seed %d step %d: an unsettled query returned %#x, %v; before the split %#x, %v", seed, step, got, ok, want, wantOK)
				}
				if !p.QuerySettled(pc, va) {
					t.Fatalf("seed %d step %d: the query is still unsettled after it issued", seed, step)
				}
			}
			if *p != *ref {
				t.Fatalf("seed %d step %d: Query moved\n%+v\nbefore the split it moved\n%+v", seed, step, p.stats, ref.stats)
			}
		}
	}
	for o := tableMiss; o <= issue; o++ {
		if outcomes[o] == 0 {
			t.Errorf("no query ever came to outcome %d: the fuzz no longer covers it", o)
		}
	}
	t.Logf("queries by outcome (tableMiss, unconfident, underflow, filtered, issue): %v", outcomes)
}
