// Package stride implements the baseline DL1 stride prefetcher of the paper
// (section 5.5): a 64-entry prefetch table indexed by the PC of load/store
// micro-ops, each entry holding the last virtual address, the last stride,
// and a 4-bit confidence counter. When a load/store misses the DL1 (or hits
// a prefetched line) and its entry has full confidence and a non-zero
// stride, the prefetcher issues a prefetch at currentaddr + 16*stride (the
// paper determined the distance factor 16 empirically). A 16-entry filter
// suppresses repeated prefetches to the same line; the caller additionally
// drops prefetches whose page misses in the TLB2.
package stride

import "bopsim/internal/mem"

// Table geometry and behaviour constants from section 5.5.
const (
	TableEntries   = 64
	ConfidenceMax  = 15
	DistanceFactor = 16
	FilterEntries  = 16
)

type entry struct {
	pc       uint64
	lastAddr mem.Addr
	stride   int64
	conf     int
	lru      uint64
	valid    bool
}

// Prefetcher is the DL1 stride prefetcher.
type Prefetcher struct {
	entries  [TableEntries]entry
	clock    uint64
	distance int64

	filter    [FilterEntries]mem.LineAddr
	filterAge [FilterEntries]uint64
	filterLen int
}

// New returns an empty stride prefetcher with the paper's distance factor.
func New() *Prefetcher { return NewWithDistance(DistanceFactor) }

// NewWithDistance returns an empty stride prefetcher with the given
// prefetch distance factor (the paper's empirically determined value is
// DistanceFactor = 16).
func NewWithDistance(distance int) *Prefetcher {
	return &Prefetcher{distance: int64(distance)}
}

// Name identifies the prefetcher in reports.
func (p *Prefetcher) Name() string { return "stride" }

// lookup finds pc's entry, or nil.
func (p *Prefetcher) lookup(pc uint64) *entry {
	for i := range p.entries {
		if p.entries[i].valid && p.entries[i].pc == pc {
			return &p.entries[i]
		}
	}
	return nil
}

// victim returns the LRU slot.
func (p *Prefetcher) victim() *entry {
	best := 0
	for i := range p.entries {
		if !p.entries[i].valid {
			return &p.entries[i]
		}
		if p.entries[i].lru < p.entries[best].lru {
			best = i
		}
	}
	return &p.entries[best]
}

// Query computes a prefetch virtual address for a load/store at pc
// accessing va, using the table state *before* this access updates it (the
// table is updated at retirement, after the DL1 access, section 5.5). It
// returns ok=false when the entry is absent, unconfident, has a zero
// stride, the target would be a negative address, or the target was
// recently prefetched; such a query changes nothing. A query that issues
// notes its target's line in the filter.
//
// The caller must only invoke Query for DL1 misses and prefetched hits, and
// must drop the returned address if its page misses in the TLB2.
//
//bovet:hotpath
func (p *Prefetcher) Query(pc uint64, va mem.Addr) (prefVA mem.Addr, ok bool) {
	e := p.lookup(pc)
	if e == nil || e.conf < ConfidenceMax || e.stride == 0 {
		return 0, false
	}
	target := mem.Addr(int64(va) + p.distance*e.stride)
	if int64(target) < 0 || p.recentlyPrefetched(mem.LineOf(target)) {
		return 0, false
	}
	p.notePrefetched(mem.LineOf(target))
	return target, true
}

// Update records the retirement of a load/store at pc with address va:
// confidence is incremented when the stride repeats, reset otherwise, and
// the stride/lastAddr are always updated (section 5.5).
//
//bovet:hotpath
func (p *Prefetcher) Update(pc uint64, va mem.Addr) {
	p.clock++
	e := p.lookup(pc)
	if e == nil {
		e = p.victim()
		*e = entry{pc: pc, lastAddr: va, valid: true, lru: p.clock}
		return
	}
	e.lru = p.clock
	if mem.Addr(int64(e.lastAddr)+e.stride) == va && e.stride != 0 {
		if e.conf < ConfidenceMax {
			e.conf++
		}
	} else {
		e.conf = 0
	}
	e.stride = int64(va) - int64(e.lastAddr)
	e.lastAddr = va
}

// recentlyPrefetched checks the 16-entry filter for line.
func (p *Prefetcher) recentlyPrefetched(line mem.LineAddr) bool {
	for i := 0; i < p.filterLen; i++ {
		if p.filter[i] == line {
			return true
		}
	}
	return false
}

// notePrefetched inserts line into the filter, evicting the oldest entry.
func (p *Prefetcher) notePrefetched(line mem.LineAddr) {
	p.clock++
	if p.filterLen < FilterEntries {
		p.filter[p.filterLen] = line
		p.filterAge[p.filterLen] = p.clock
		p.filterLen++
		return
	}
	oldest := 0
	for i := 1; i < FilterEntries; i++ {
		if p.filterAge[i] < p.filterAge[oldest] {
			oldest = i
		}
	}
	p.filter[oldest] = line
	p.filterAge[oldest] = p.clock
}
