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

// Stats counts the prefetcher's decisions.
type Stats struct {
	Issued    uint64 // prefetch addresses returned to the caller
	Filtered  uint64 // suppressed by the 16-entry line filter
	TableHits uint64
	TableMiss uint64
	Confident uint64 // queries that found a confident, non-zero stride
}

// Prefetcher is the DL1 stride prefetcher.
type Prefetcher struct {
	entries  [TableEntries]entry
	clock    uint64
	distance int64

	filter    [FilterEntries]mem.LineAddr
	filterAge [FilterEntries]uint64
	filterLen int

	stats Stats
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

// Stats returns a copy of the statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

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

// outcome is what a query's classification came to. Every outcome but issue
// is settled: such a query returns no prefetch and moves counters only.
type outcome uint8

const (
	tableMiss   outcome = iota // no entry for the PC
	unconfident                // an entry short of full confidence, or with a zero stride
	underflow                  // a confident stride whose target would be a negative address
	filtered                   // the target's line is in the filter
	issue                      // a prefetch goes out and its line is noted in the filter
)

// classify decides what a query at pc for va comes to, and its target, from
// the table and the filter without touching either. It is the one decision
// procedure behind Query, QuerySettled and ChargeQueries.
func (p *Prefetcher) classify(pc uint64, va mem.Addr) (outcome, mem.Addr) {
	e := p.lookup(pc)
	if e == nil {
		return tableMiss, 0
	}
	if e.conf < ConfidenceMax || e.stride == 0 {
		return unconfident, 0
	}
	target := mem.Addr(int64(va) + p.distance*e.stride)
	if int64(target) < 0 {
		return underflow, 0
	}
	if p.recentlyPrefetched(mem.LineOf(target)) {
		return filtered, target
	}
	return issue, target
}

// charge counts n queries that came to o.
func (p *Prefetcher) charge(o outcome, n uint64) {
	if o == tableMiss {
		p.stats.TableMiss += n
		return
	}
	p.stats.TableHits += n
	if o == unconfident {
		return
	}
	p.stats.Confident += n
	switch o {
	case filtered:
		p.stats.Filtered += n
	case issue:
		p.stats.Issued += n
	}
}

// Query computes a prefetch virtual address for a load/store at pc
// accessing va, using the table state *before* this access updates it (the
// table is updated at retirement, after the DL1 access, section 5.5). It
// returns ok=false when the entry is absent, unconfident, has a zero
// stride, or the target was recently prefetched.
//
// The caller must only invoke Query for DL1 misses and prefetched hits, and
// must drop the returned address if its page misses in the TLB2.
//
//bovet:hotpath
func (p *Prefetcher) Query(pc uint64, va mem.Addr) (prefVA mem.Addr, ok bool) {
	o, target := p.classify(pc, va)
	p.charge(o, 1)
	if o != issue {
		return 0, false
	}
	p.notePrefetched(mem.LineOf(target))
	return target, true
}

// QuerySettled implements prefetch.QueryCharger: Query(pc, va) would return
// no prefetch, so all it would move is counters.
//
//bovet:hotpath
func (p *Prefetcher) QuerySettled(pc uint64, va mem.Addr) bool {
	o, _ := p.classify(pc, va)
	return o != issue
}

// ChargeQueries implements prefetch.QueryCharger: the counters of n
// Query(pc, va) calls, for a query that is settled.
//
//bovet:hotpath
func (p *Prefetcher) ChargeQueries(pc uint64, va mem.Addr, n uint64) {
	o, _ := p.classify(pc, va)
	if o == issue {
		panic("stride: ChargeQueries on a query that would issue a prefetch")
	}
	p.charge(o, n)
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
