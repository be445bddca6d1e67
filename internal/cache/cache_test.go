package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"bopsim/internal/mem"
)

func newSmallLRU(t *testing.T, sizeBytes, ways int) *Cache {
	t.Helper()
	sets := sizeBytes / mem.LineSize / ways
	return New("test", sizeBytes, ways, NewLRU(sets, ways))
}

func TestCacheHitAfterInsert(t *testing.T) {
	c := newSmallLRU(t, 4096, 4)
	c.Place(100, InsertInfo{})
	if ln := c.Lookup(100); ln == nil || ln.Addr() != 100 {
		t.Fatalf("Lookup(100) after Place = %+v", ln)
	}
}

// TestCacheMissChangesNothing: a lookup that misses touches neither the lines
// nor the replacement state, so a probe the hierarchy makes and discards
// cannot perturb the run.
func TestCacheMissChangesNothing(t *testing.T) {
	c := newSmallLRU(t, 4096, 4)
	for l := mem.LineAddr(0); l < 20; l++ {
		c.Place(l*3, InsertInfo{IsPrefetch: l%2 == 0})
	}
	before := c.SaveState()
	for l := mem.LineAddr(1); l < 60; l += 3 {
		if c.Lookup(l) != nil {
			t.Fatalf("Lookup(%d) hit a line never inserted", l)
		}
	}
	if !reflect.DeepEqual(c.SaveState(), before) {
		t.Error("missing lookups changed the cache's lines or replacement state")
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	// 2-way cache: fill one set with A and B, touch A, insert C -> B evicted.
	ways := 2
	sets := 4
	c := New("t", sets*ways*mem.LineSize, ways, NewLRU(sets, ways))
	a := mem.LineAddr(0)        // set 0
	b := mem.LineAddr(sets)     // set 0
	d := mem.LineAddr(2 * sets) // set 0
	c.Place(a, InsertInfo{})
	c.Place(b, InsertInfo{})
	c.Lookup(a) // make A MRU
	ev, _ := c.Place(d, InsertInfo{})
	if !ev.Valid() || ev.Addr() != b {
		t.Errorf("evicted %+v, want line %d", ev, b)
	}
	if c.Peek(a) == nil || c.Peek(d) == nil {
		t.Error("A or D missing after eviction of B")
	}
}

func TestPrefetchBitLifecycle(t *testing.T) {
	c := newSmallLRU(t, 4096, 4)
	c.Place(7, InsertInfo{IsPrefetch: true})
	ln := c.Lookup(7)
	if ln == nil || !ln.Prefetch() {
		t.Fatal("prefetch bit not set on prefetched insert")
	}
	// The L2 access path clears the bit on demand use.
	ln.ClearPrefetch()
	if ln2 := c.Lookup(7); ln2.Prefetch() {
		t.Error("prefetch bit set after demand clear")
	}
}

func TestInvalidate(t *testing.T) {
	c := newSmallLRU(t, 4096, 4)
	c.Place(9, InsertInfo{})
	old, ok := c.Invalidate(9)
	if !ok || old.Addr() != 9 {
		t.Fatalf("Invalidate returned %v %v", old, ok)
	}
	if c.Peek(9) != nil {
		t.Error("line still present after invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Error("double invalidate reported ok")
	}
}

func TestInsertUsesInvalidWaysFirst(t *testing.T) {
	ways := 4
	sets := 2
	c := New("t", sets*ways*mem.LineSize, ways, NewLRU(sets, ways))
	for i := 0; i < ways; i++ {
		ev, _ := c.Place(mem.LineAddr(i*sets), InsertInfo{})
		if ev.Valid() {
			t.Fatalf("eviction while invalid ways remain (insert %d)", i)
		}
	}
	if ev, _ := c.Place(mem.LineAddr(ways*sets), InsertInfo{}); !ev.Valid() {
		t.Error("no eviction from a full set")
	}
}

func TestCacheGeometryValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two set count did not panic")
		}
	}()
	New("bad", 3*mem.LineSize, 1, NewLRU(3, 1))
}

// Property: a cache never holds the same line twice, and never exceeds its
// capacity, under random insert/lookup/invalidate traffic.
func TestCacheNoDuplicatesProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		ways, sets := 4, 8
		c := New("p", sets*ways*mem.LineSize, ways, NewLRU(sets, ways))
		live := make(map[mem.LineAddr]bool)
		for _, op := range ops {
			l := mem.LineAddr(op % 256)
			switch op % 3 {
			case 0:
				if ev, _ := c.Place(l, InsertInfo{}); ev.Valid() {
					delete(live, ev.Addr())
				}
				live[l] = true
			case 1:
				c.Lookup(l)
			case 2:
				if _, ok := c.Invalidate(l); ok {
					delete(live, l)
				}
			}
			// Count occurrences of l across the whole cache.
			count := 0
			for s := 0; s < sets; s++ {
				for w := 0; w < ways; w++ {
					if ln := c.line(s, w); ln.Valid() && ln.Addr() == l {
						count++
					}
				}
			}
			if count > 1 {
				return false
			}
		}
		return len(live) <= sets*ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := newSmallLRU(t, 4096, 4)
	c.Place(1, InsertInfo{})
	c.Lookup(1)
	c.Lookup(2)
	c.Reset()
	if c.Peek(1) != nil {
		t.Error("line survived Reset")
	}
	if st := c.SaveState(); len(st.Lines) != 0 {
		t.Errorf("Reset left packed lines %x", st.Lines)
	}
}
