package cache

import "sync"

// A sweep runs thousands of short simulations, and each builds an 8MB L3
// whose line array and replacement stamps are megabytes of garbage when it
// ends. Cache.Close hands them to a process-wide free list instead, and the
// next cache or stamp array of the same length takes them back cleared: a
// reused array is indistinguishable from a made one, so reuse moves no
// simulated byte. The list keeps at most freeListCap arrays per length, so
// what it holds is bounded by what was in use at once, never by the host. It
// is not a sync.Pool: per-P caches and a victim generation keep more of
// these megabyte arrays alive than a sweep has machines, which a sweep's
// peak RSS shows.

// freeListCap bounds how many arrays of one length the free list keeps:
// enough for two 4-core machines' private caches.
const freeListCap = 8

// freeList is a mutex-guarded stack of released arrays per length.
type freeList[T any] struct {
	mu    sync.Mutex
	byLen map[int][][]T
}

var (
	freeLines  freeList[Line]
	freeStamps freeList[uint64]
)

// get returns a zeroed array of n elements, a released one if any is free.
func (f *freeList[T]) get(n int) []T {
	f.mu.Lock()
	stack := f.byLen[n]
	if len(stack) == 0 {
		f.mu.Unlock()
		return make([]T, n)
	}
	a := stack[len(stack)-1]
	stack[len(stack)-1] = nil
	f.byLen[n] = stack[:len(stack)-1]
	f.mu.Unlock()
	clear(a)
	return a
}

// put releases a, which its owner must no longer reference. A full stack
// drops it for the garbage collector.
func (f *freeList[T]) put(a []T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.byLen == nil {
		f.byLen = make(map[int][][]T)
	}
	if stack := f.byLen[len(a)]; len(stack) < freeListCap {
		f.byLen[len(a)] = append(stack, a)
	}
}

// Close releases the cache's line array and its policy's stamps to the free
// list and drops them, so a stray use of a closed cache panics instead of
// writing into another cache's array. Close is idempotent; the counters stay
// readable.
func (c *Cache) Close() {
	if c.lines == nil {
		return
	}
	freeLines.put(c.lines)
	c.lines = nil
	if st := c.stampState(); st != nil {
		st.release()
	}
}

// release hands the stamps to the free list and drops them.
func (s *lruState) release() {
	freeStamps.put(s.stamps)
	s.stamps = nil
}
