package cache

import (
	"testing"

	"bopsim/internal/mem"
)

// TestCloseHandsOnClearedArrays fills a cache under each policy, closes it
// twice, and builds two more of the same geometry. The first takes the
// closed cache's arrays back, cleared: every line and stamp reads as a made
// one's. The second gets arrays of its own, so a second Close released
// nothing twice. The closed cache keeps no array, so a stray lookup panics
// instead of reading the new owner's lines.
func TestCloseHandsOnClearedArrays(t *testing.T) {
	const sets, ways = 32, 3 // a length no other test of this package builds
	for name, policy := range map[string]func() Policy{
		"LRU":   func() Policy { return NewLRU(sets, ways) },
		"5P":    func() Policy { return NewFiveP(sets, ways, 2, 7) },
		"DRRIP": func() Policy { return NewDRRIP(sets, ways, 7) },
	} {
		t.Run(name, func(t *testing.T) {
			build := func() *Cache { return New("t", sets*ways*mem.LineSize, ways, policy()) }
			c := build()
			for l := mem.LineAddr(0); l < 4*sets*ways; l++ {
				c.Place(l, InsertInfo{Core: 1, IsPrefetch: l%2 == 0})
			}
			lines, stamps := &c.lines[0], stampsOf(t, c)
			c.Close()
			c.Close()
			if c.lines != nil || stampsOf(t, c) != nil {
				t.Fatal("a closed cache still holds its arrays")
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Error("a lookup in a closed cache did not panic")
					}
				}()
				c.Lookup(0)
			}()

			reused, other := build(), build()
			if &reused.lines[0] != lines || (stamps != nil && stampsOf(t, reused) != stamps) {
				t.Error("the next cache of the same geometry did not take the closed cache's arrays")
			}
			if &other.lines[0] == lines || (stamps != nil && stampsOf(t, other) == stamps) {
				t.Error("two live caches share an array: a second Close released it twice")
			}
			for i, ln := range reused.lines {
				if ln != 0 {
					t.Fatalf("reused line %d is %+v, want the zero line", i, ln)
				}
			}
			if stamps != nil {
				for i, v := range lruStateOf(t, reused.policy).stamps {
					if v != 0 {
						t.Fatalf("reused stamp %d is %d, want 0", i, v)
					}
				}
			}
			reused.Close()
			other.Close()
		})
	}
}

// stampsOf returns the address of c's first stamp, nil for DRRIP or when the
// policy holds no stamps.
func stampsOf(t *testing.T, c *Cache) *uint64 {
	if _, ok := c.policy.(*DRRIP); ok {
		return nil
	}
	if s := lruStateOf(t, c.policy); len(s.stamps) > 0 {
		return &s.stamps[0]
	}
	return nil
}
