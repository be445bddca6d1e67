// Package tlb models the data-TLB hierarchy of the baseline
// microarchitecture (Table 1: DTLB1 64 entries, shared TLB2 512 entries).
// TLB behaviour is what differentiates the paper's 4KB-page and 4MB-page
// baselines (Figure 2): with large pages nearly every access hits the DTLB1,
// while 4KB pages make large-working-set benchmarks pay frequent TLB2
// lookups and page walks.
//
// The L2 prefetchers never consult the TLB (paper section 5.6); the DL1
// stride prefetcher does, and drops prefetches that miss in the TLB2
// (section 5.5).
package tlb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"bopsim/internal/mem"
)

// Latencies added to a memory access on the corresponding TLB outcome, in
// core cycles. A DTLB1 hit is folded into the DL1 access latency.
const (
	TLB2HitPenalty  = 7
	PageWalkPenalty = 50
)

// tlbLevel is one fully-associative translation buffer with true LRU. The
// resident set lives in dense vpn/stamp arrays with a map from VPN to slot.
// Stamps are strictly increasing (every write is preceded by a clock
// increment), so recency is a total order; an intrusive list over the slot
// indices keeps it, and the victim is the tail instead of a scan for the
// minimum stamp. The stamps are still written: they are what a snapshot
// carries, and restoreState rebuilds the list from them.
//
// access checks the most recent entry before the map, since consecutive
// accesses mostly touch one page. The check is exact: VPNs are unique among
// the slots and the map agrees with vpns, so when vpns[mru] is the VPN the
// map would answer mru. Touching the entry that is already most recent
// changes nothing — recency is an order, and that entry is already first —
// so neither access nor probe ticks the clock or restamps it: a level's
// state moves only when its order does.
type tlbLevel struct {
	entries int
	slot    map[uint64]int // VPN -> index into vpns/stamps
	vpns    []uint64
	stamps  []uint64
	// Recency list over slot indices: prev points toward mru, next toward
	// lru, -1 ends the list.
	prev, next []int32
	mru, lru   int32
	clock      uint64
}

func newTLBLevel(entries int) *tlbLevel {
	return &tlbLevel{
		entries: entries,
		slot:    make(map[uint64]int, entries),
		vpns:    make([]uint64, 0, entries),
		stamps:  make([]uint64, 0, entries),
		prev:    make([]int32, 0, entries),
		next:    make([]int32, 0, entries),
		mru:     -1,
		lru:     -1,
	}
}

// touch stamps slot i with the current clock and makes it most recent.
// Only insert hands it the most recent slot (a one-entry level's victim).
func (t *tlbLevel) touch(i int32) {
	t.stamps[i] = t.clock
	if t.mru == i {
		return
	}
	p, n := t.prev[i], t.next[i]
	t.next[p] = n // i is not mru, so p exists
	if n >= 0 {
		t.prev[n] = p
	} else {
		t.lru = p
	}
	t.pushFront(i)
}

func (t *tlbLevel) pushFront(i int32) {
	t.prev[i], t.next[i] = -1, t.mru
	if t.mru >= 0 {
		t.prev[t.mru] = i
	} else {
		t.lru = i
	}
	t.mru = i
}

// access looks up vpn, refreshing LRU state; insert on miss.
func (t *tlbLevel) access(vpn uint64) (hit bool) {
	if t.mru >= 0 && t.vpns[t.mru] == vpn {
		return true
	}
	t.clock++
	if i, ok := t.slot[vpn]; ok {
		t.touch(int32(i))
		return true
	}
	t.insert(vpn)
	return false
}

// probe looks up vpn without inserting on miss (used by the DL1 stride
// prefetcher's TLB2 check, which drops the prefetch on a miss rather than
// walking the page table).
func (t *tlbLevel) probe(vpn uint64) bool {
	i, ok := t.slot[vpn]
	if ok && int32(i) != t.mru {
		t.clock++
		t.touch(int32(i))
	}
	return ok
}

func (t *tlbLevel) insert(vpn uint64) {
	if len(t.vpns) >= t.entries {
		victim := t.lru
		delete(t.slot, t.vpns[victim])
		t.vpns[victim] = vpn
		t.slot[vpn] = int(victim)
		t.touch(victim)
		return
	}
	i := int32(len(t.vpns))
	t.vpns = append(t.vpns, vpn)
	t.stamps = append(t.stamps, t.clock)
	t.prev = append(t.prev, -1)
	t.next = append(t.next, -1)
	t.slot[vpn] = int(i)
	t.pushFront(i)
}

// Hierarchy is a per-core DTLB1 backed by a TLB2.
type Hierarchy struct {
	page  mem.PageSize
	dtlb1 *tlbLevel
	tlb2  *tlbLevel
	// Walks counts page-table walks (TLB2 misses on demand accesses).
	Walks uint64
}

// New returns a TLB hierarchy for the given page size with the baseline
// entry counts (DTLB1 64, TLB2 512).
func New(page mem.PageSize) *Hierarchy {
	return &Hierarchy{page: page, dtlb1: newTLBLevel(64), tlb2: newTLBLevel(512)}
}

// NewWithSizes returns a TLB hierarchy with custom entry counts, for tests
// and sensitivity studies.
func NewWithSizes(page mem.PageSize, dtlb1, tlb2 int) *Hierarchy {
	return &Hierarchy{page: page, dtlb1: newTLBLevel(dtlb1), tlb2: newTLBLevel(tlb2)}
}

// Access translates the virtual address of a demand load/store and returns
// the extra latency in cycles caused by TLB misses (0 on a DTLB1 hit).
func (h *Hierarchy) Access(va mem.Addr) uint64 {
	vpn := h.page.PageOf(va)
	if h.dtlb1.access(vpn) {
		return 0
	}
	if h.tlb2.access(vpn) {
		return TLB2HitPenalty
	}
	h.Walks++
	return TLB2HitPenalty + PageWalkPenalty
}

// ProbeTLB2 reports whether the page of va is present in the TLB2 without
// allocating on miss. The DL1 stride prefetcher uses this and drops the
// prefetch when it returns false.
func (h *Hierarchy) ProbeTLB2(va mem.Addr) bool {
	return h.tlb2.probe(h.page.PageOf(va))
}

// LevelState is one TLB level's serialized contents: the resident VPNs with
// their LRU stamps (sorted by VPN so encoding is byte-stable — the live
// structure is a map) plus the level's clock. A level keeps no counters; the
// hierarchy's Walks is the one a Result reports.
type LevelState struct {
	VPNs   []uint64
	Stamps []uint64
	Clock  uint64
}

// State is the serialized state of one TLB hierarchy.
type State struct {
	DTLB1 LevelState
	TLB2  LevelState
	Walks uint64
}

func (t *tlbLevel) saveState() LevelState {
	vpns := append([]uint64(nil), t.vpns...)
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	st := LevelState{VPNs: vpns, Stamps: make([]uint64, len(vpns)), Clock: t.clock}
	for i, v := range vpns {
		st.Stamps[i] = t.stamps[t.slot[v]]
	}
	return st
}

// restoreState replaces the level's contents with st's, refilling the map
// it has rather than making one. After an error the level must be
// discarded.
func (t *tlbLevel) restoreState(st LevelState) error {
	if len(st.VPNs) != len(st.Stamps) {
		return fmt.Errorf("tlb: %d VPNs but %d stamps", len(st.VPNs), len(st.Stamps))
	}
	if len(st.VPNs) > t.entries {
		return fmt.Errorf("tlb: state has %d entries, level holds %d", len(st.VPNs), t.entries)
	}
	clear(t.slot)
	for i, v := range st.VPNs {
		if _, dup := t.slot[v]; dup {
			return fmt.Errorf("tlb: duplicate VPN %#x in state", v)
		}
		t.slot[v] = i
	}
	// Recency is the stamp order; a level only ever writes each clock value
	// once, so equal stamps (or one from the future) are not a state a level
	// can have been in.
	order := make([]int32, len(st.Stamps))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(st.Stamps[a], st.Stamps[b]) })
	for k, i := range order {
		if st.Stamps[i] > st.Clock || k > 0 && st.Stamps[i] == st.Stamps[order[k-1]] {
			return fmt.Errorf("tlb: stamp %d of VPN %#x is repeated or ahead of clock %d", st.Stamps[i], st.VPNs[i], st.Clock)
		}
	}
	t.vpns = append(t.vpns[:0], st.VPNs...)
	t.stamps = append(t.stamps[:0], st.Stamps...)
	t.prev, t.next, t.mru, t.lru = t.prev[:len(order)], t.next[:len(order)], -1, -1
	for _, i := range order { // oldest first, so the newest ends up mru
		t.pushFront(i)
	}
	t.clock = st.Clock
	return nil
}

// SaveState serializes the hierarchy's resident translations and walk count.
func (h *Hierarchy) SaveState() State {
	return State{DTLB1: h.dtlb1.saveState(), TLB2: h.tlb2.saveState(), Walks: h.Walks}
}

// RestoreState replaces the hierarchy's state with a previously saved one.
func (h *Hierarchy) RestoreState(st State) error {
	if err := h.dtlb1.restoreState(st.DTLB1); err != nil {
		return fmt.Errorf("DTLB1: %w", err)
	}
	if err := h.tlb2.restoreState(st.TLB2); err != nil {
		return fmt.Errorf("TLB2: %w", err)
	}
	h.Walks = st.Walks
	return nil
}

// ResetStats clears the walk counter, keeping the resident translations
// (warmup barrier semantics).
func (h *Hierarchy) ResetStats() {
	h.Walks = 0
}
