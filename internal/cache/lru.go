package cache

// lruState holds age stamps for one cache: larger stamp = more recently
// used. Stamps are monotonically increasing, so the minimum stamp in a set
// is the LRU way. "LRU insertion" places a block at the LRU position by
// giving it a stamp smaller than every current stamp in the set.
type lruState struct {
	stamps []uint64 // sets*ways
	ways   int
	clock  uint64
}

func newLRUState(sets, ways int) *lruState {
	s := &lruState{ways: ways, clock: 1}
	s.stamps = freeStamps.get(sets * ways)
	return s
}

func (s *lruState) touchMRU(set, way int) {
	s.clock++
	s.stamps[set*s.ways+way] = s.clock
}

func (s *lruState) touchLRU(set, way int) {
	min := s.minStamp(set)
	base := set * s.ways
	if min == 0 {
		s.stamps[base+way] = 0
		return
	}
	s.stamps[base+way] = min - 1
}

func (s *lruState) minStamp(set int) uint64 {
	base := set * s.ways
	min := s.stamps[base]
	for w := 1; w < s.ways; w++ {
		if s.stamps[base+w] < min {
			min = s.stamps[base+w]
		}
	}
	return min
}

func (s *lruState) victim(set int) int {
	base := set * s.ways
	best := 0
	for w := 1; w < s.ways; w++ {
		if s.stamps[base+w] < s.stamps[base+best] {
			best = w
		}
	}
	return best
}

// LRU is classical least-recently-used replacement with MRU insertion. It
// is the policy of the DL1 and private L2 caches (Table 1) and one of the
// L3 alternatives evaluated in Figure 3.
type LRU struct {
	state *lruState
}

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

// OnHit implements Policy: move to MRU.
func (p *LRU) OnHit(set, way int) { p.state.touchMRU(set, way) }

// OnInsert implements Policy: MRU insertion.
func (p *LRU) OnInsert(set, way int, _ InsertInfo) { p.state.touchMRU(set, way) }

// Victim implements Policy.
func (p *LRU) Victim(set int) int { return p.state.victim(set) }

// NewLRU returns an LRU policy for a cache with the given geometry.
func NewLRU(sets, ways int) *LRU {
	return &LRU{state: newLRUState(sets, ways)}
}
