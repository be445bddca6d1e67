// Package cache implements the set-associative write-back caches of the
// simulated memory hierarchy, together with the replacement policies the
// paper evaluates at the L3: LRU, DRRIP, and the paper's own 5P policy
// (section 5.2). Every line carries a prefetch bit — the L2 prefetchers are
// gated on it (section 5.6) — and a dirty bit for write-back traffic.
package cache

import (
	"fmt"

	"bopsim/internal/mem"
)

// Line is the metadata of one cache line (the simulator stores no data),
// packed into one word so that a cache's line array costs 8 bytes a line:
//
//	bits  0–33  line address (the tag): mem.Translator keeps physical
//	            addresses below 1<<mem.PhysBits, so a physical line address
//	            needs mem.PhysBits-mem.LineBits = 34 bits
//	bits 34–41  owner core, the core that caused the insertion (for
//	            core-aware policies and write-back routing)
//	bit  61     prefetch: set when inserted by a prefetch, cleared on
//	            demand use
//	bit  62     dirty
//	bit  63     valid
//
// The zero Line is an invalid line.
type Line uint64

const (
	lineAddrBits  = mem.PhysBits - mem.LineBits
	lineAddrMask  = 1<<lineAddrBits - 1
	lineCoreShift = lineAddrBits
	lineCoreMask  = 0xff
	linePrefetch  = 1 << 61
	lineDirty     = 1 << 62
	lineValid     = 1 << 63
	// lineMatch selects what a probe compares: a way holds line l exactly
	// when its word masked by lineMatch equals lineValid|l. A line address
	// at or above 1<<lineAddrBits (never a physical one) sets a bit the
	// masked word lacks, so it misses rather than aliasing a stored line.
	lineMatch = lineValid | lineAddrMask
)

// makeLine packs a valid line. An address that does not fit the word
// panics: truncating it would alias another line.
func makeLine(l mem.LineAddr, core int, prefetch, dirty bool) Line {
	if uint64(l) > lineAddrMask {
		panic("cache: line address beyond the physical address space")
	}
	ln := lineValid | Line(l) | Line(uint8(core))<<lineCoreShift
	if prefetch {
		ln |= linePrefetch
	}
	if dirty {
		ln |= lineDirty
	}
	return ln
}

// Addr returns the line address.
func (ln Line) Addr() mem.LineAddr { return mem.LineAddr(ln & lineAddrMask) }

// Valid reports whether the way holds a line.
func (ln Line) Valid() bool { return ln&lineValid != 0 }

// Dirty reports whether the line must be written back on eviction.
func (ln Line) Dirty() bool { return ln&lineDirty != 0 }

// Prefetch reports whether the line was inserted by a prefetch and has not
// been used by a demand since.
func (ln Line) Prefetch() bool { return ln&linePrefetch != 0 }

// Core returns the core that caused the insertion.
func (ln Line) Core() int { return int(ln >> lineCoreShift & lineCoreMask) }

// SetDirty marks the line dirty.
func (ln *Line) SetDirty() { *ln |= lineDirty }

// ClearPrefetch clears the prefetch bit, on the line's first demand use.
func (ln *Line) ClearPrefetch() { *ln &^= linePrefetch }

// InsertInfo describes a block being placed (Place). Core and IsPrefetch
// are stored in the line and read by the policy's OnInsert; Dirty is the
// block's dirty bit, set on a placed line and merged into a present one.
type InsertInfo struct {
	Core       int
	IsPrefetch bool // block was fetched by a prefetch request
	Dirty      bool // block is newer than the level below (written, or a write-back)
}

// Policy decides victim selection and insertion/promotion ordering for one
// cache. Implementations own all per-set replacement state.
type Policy interface {
	// Name identifies the policy in reports ("LRU", "DRRIP", "5P", ...).
	Name() string
	// OnHit is called when way in set hits on a demand or prefetch access.
	OnHit(set, way int)
	// OnInsert is called after Place writes a new line into way.
	OnInsert(set, way int, info InsertInfo)
	// Victim returns the way to evict in set; all ways are valid when it is
	// called (the cache fills invalid ways itself).
	Victim(set int) int
	// SaveState serializes the policy's replacement state for a checkpoint
	// (see state.go). RestoreState replaces it with a previously saved one,
	// rejecting state whose shape does not match this policy instance.
	SaveState() PolicyState
	RestoreState(PolicyState) error
	// saveView is SaveState with Stamps nil and every other slice aliasing
	// the policy's own (Cache.SaveView).
	saveView() PolicyState
}

// Cache is a set-associative cache. It is not safe for concurrent use; the
// simulator is single-threaded by design (one global clock).
type Cache struct {
	name    string
	sets    int
	ways    int
	setMask uint64
	lines   []Line // sets*ways, row-major
	policy  Policy
}

// New creates a cache of sizeBytes with the given associativity and policy.
// sizeBytes must be a multiple of ways*mem.LineSize and the resulting set
// count must be a power of two.
func New(name string, sizeBytes, ways int, policy Policy) *Cache {
	if sizeBytes <= 0 || ways <= 0 {
		panic("cache: non-positive geometry")
	}
	lines := sizeBytes / mem.LineSize
	if lines%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, lines, ways))
	}
	sets := lines / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d is not a power of two", name, sets))
	}
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
		lines:   freeLines.get(sets * ways),
		policy:  policy,
	}
}

// Name returns the cache's display name.
func (c *Cache) Name() string { return c.name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// Policy returns the replacement policy.
func (c *Cache) Policy() Policy { return c.policy }

// SetOf returns the set index for a line address.
func (c *Cache) SetOf(l mem.LineAddr) int { return int(uint64(l) & c.setMask) }

func (c *Cache) line(set, way int) *Line { return &c.lines[set*c.ways+way] }

// Lookup probes the cache. On a hit it applies the policy's hit update and
// returns a pointer to the line metadata; on a miss it returns nil and changes
// nothing. The returned pointer is only valid until the next Place on the
// same set.
func (c *Cache) Lookup(l mem.LineAddr) *Line {
	set := c.SetOf(l)
	key := lineValid | Line(l)
	for w := 0; w < c.ways; w++ {
		ln := c.line(set, w)
		if *ln&lineMatch == key {
			c.policy.OnHit(set, w)
			return ln
		}
	}
	return nil
}

// Peek probes the cache without updating replacement state, for checks
// that place nothing: a prefetch's tag check before it is issued, the
// hierarchy's stall predicates and tests. Place makes its own check.
func (c *Cache) Peek(l mem.LineAddr) *Line {
	set := c.SetOf(l)
	key := lineValid | Line(l)
	for w := 0; w < c.ways; w++ {
		ln := c.line(set, w)
		if *ln&lineMatch == key {
			return ln
		}
	}
	return nil
}

// Place is the one way a line enters the cache. If l is already present it
// only merges info.Dirty into that line, leaving replacement state alone,
// and reports placed false: the mandatory tag check of paper section 5.4,
// which keeps a block from being held twice. Otherwise it writes l, dirty
// bit included, into the set's first invalid way or else the policy's
// victim, and returns the line it displaced (the zero Line if the way was
// free).
func (c *Cache) Place(l mem.LineAddr, info InsertInfo) (evicted Line, placed bool) {
	set := c.SetOf(l)
	ways := c.lines[set*c.ways : (set+1)*c.ways]
	key := lineValid | Line(l)
	way := -1
	for w, ln := range ways {
		if ln&lineMatch == key {
			if info.Dirty {
				ways[w].SetDirty()
			}
			return 0, false
		}
		if way < 0 && !ln.Valid() {
			way = w
		}
	}
	if way < 0 {
		way = c.victim(set)
		evicted = ways[way]
	}
	ways[way] = makeLine(l, info.Core, info.IsPrefetch, info.Dirty)
	c.policy.OnInsert(set, way, info)
	return evicted, true
}

// victim asks the policy which way of a full set to evict. It is Place's
// cold half: the check of a broken policy's answer stays out of the hot
// placement code.
func (c *Cache) victim(set int) int {
	way := c.policy.Victim(set)
	if way < 0 || way >= c.ways {
		//bovet:allow hotalloc panic path for a broken replacement policy; never taken in a correct run
		panic(fmt.Sprintf("cache %s: policy %s returned bad victim %d", c.name, c.policy.Name(), way))
	}
	return way
}

// Invalidate removes line l if present and returns its prior metadata.
func (c *Cache) Invalidate(l mem.LineAddr) (old Line, ok bool) {
	set := c.SetOf(l)
	key := lineValid | Line(l)
	for w := 0; w < c.ways; w++ {
		ln := c.line(set, w)
		if *ln&lineMatch == key {
			old = *ln
			*ln = 0
			return old, true
		}
	}
	return 0, false
}

// Reset clears all lines (policy state is left as-is; use a fresh cache for
// independent runs).
func (c *Cache) Reset() { clear(c.lines) }
