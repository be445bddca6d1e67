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
// resident set lives in dense vpn/stamp arrays with an index from VPN to slot.
// Stamps are strictly increasing (every write is preceded by a clock
// increment), so recency is a total order; an intrusive list over the slot
// indices keeps it, and the victim is the tail instead of a scan for the
// minimum stamp. The stamps are still written: they are what a snapshot
// carries, and restoreState rebuilds the list from them.
//
// access checks the most recent entry before the index, since consecutive
// accesses mostly touch one page. The check is exact: VPNs are unique among
// the slots and the index agrees with vpns, so when vpns[mru] is the VPN the
// index would answer mru. Touching the entry that is already most recent
// changes nothing — recency is an order, and that entry is already first —
// so neither access nor probe ticks the clock or restamps it: a level's
// state moves only when its order does.
type tlbLevel struct {
	entries int
	slot    vpnIndex // VPN -> index into vpns/stamps
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
		slot:    newVPNIndex(entries),
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
	if i := t.slot.get(vpn); i >= 0 {
		t.touch(i)
		return true
	}
	t.insert(vpn)
	return false
}

// probe looks up vpn without inserting on miss (used by the DL1 stride
// prefetcher's TLB2 check, which drops the prefetch on a miss rather than
// walking the page table).
func (t *tlbLevel) probe(vpn uint64) bool {
	i := t.slot.get(vpn)
	if i >= 0 && i != t.mru {
		t.clock++
		t.touch(i)
	}
	return i >= 0
}

func (t *tlbLevel) insert(vpn uint64) {
	if len(t.vpns) >= t.entries {
		victim := t.lru
		t.slot.remove(t.vpns[victim])
		t.vpns[victim] = vpn
		t.slot.put(vpn, victim)
		t.touch(victim)
		return
	}
	i := int32(len(t.vpns))
	t.vpns = append(t.vpns, vpn)
	t.stamps = append(t.stamps, t.clock)
	t.prev = append(t.prev, -1)
	t.next = append(t.next, -1)
	t.slot.put(vpn, i)
	t.pushFront(i)
}

// vpnIndex maps the VPNs resident in a level to their slots: an
// open-addressing table with linear probing, sized at construction to at
// least twice the level's entries. A removal shifts the entries of its probe
// run back over the hole instead of leaving a tombstone, so however long a
// level churns the table is never rebuilt, and no lookup, insertion or
// removal allocates (a Go map under the same churn reallocates its table
// from time to time).
type vpnIndex struct {
	vpns  []uint64
	slots []int32 // -1: empty
	shift uint    // 64 - log2(len(slots))
}

func newVPNIndex(entries int) vpnIndex {
	size, shift := 8, uint(61)
	for size < 2*entries {
		size, shift = size*2, shift-1
	}
	x := vpnIndex{vpns: make([]uint64, size), slots: make([]int32, size), shift: shift}
	x.clear()
	return x
}

// home is vpn's first probe position (Fibonacci hashing: consecutive VPNs
// land far apart).
func (x *vpnIndex) home(vpn uint64) int { return int(vpn * 0x9e3779b97f4a7c15 >> x.shift) }

// find returns the position holding vpn, or the empty position that ends its
// probe run.
func (x *vpnIndex) find(vpn uint64) int {
	mask := len(x.slots) - 1
	i := x.home(vpn)
	for x.slots[i] >= 0 && x.vpns[i] != vpn {
		i = (i + 1) & mask
	}
	return i
}

// get returns vpn's slot, or -1 when vpn is not resident.
func (x *vpnIndex) get(vpn uint64) int32 { return x.slots[x.find(vpn)] }

// put records vpn, which must not be resident, at slot.
func (x *vpnIndex) put(vpn uint64, slot int32) {
	i := x.find(vpn)
	x.vpns[i], x.slots[i] = vpn, slot
}

// remove forgets vpn, which must be resident, and closes the hole: each later
// entry of the probe run whose home is not between the hole and itself moves
// back into the hole, which moves on to where that entry was.
func (x *vpnIndex) remove(vpn uint64) {
	mask := len(x.slots) - 1
	hole := x.find(vpn)
	x.slots[hole] = -1
	for j := (hole + 1) & mask; x.slots[j] >= 0; j = (j + 1) & mask {
		if (j-x.home(x.vpns[j]))&mask >= (j-hole)&mask {
			x.vpns[hole], x.slots[hole] = x.vpns[j], x.slots[j]
			x.slots[j] = -1
			hole = j
		}
	}
}

// clear empties the index.
func (x *vpnIndex) clear() {
	for i := range x.slots {
		x.slots[i] = -1
	}
}

// Hierarchy is a per-core DTLB1 backed by a TLB2.
type Hierarchy struct {
	page  mem.PageSize
	dtlb1 *tlbLevel
	tlb2  *tlbLevel
	// Walks counts page-table walks (TLB2 misses on demand accesses).
	//bovet:allow statecodec a counter: a snapshot is taken at the barrier, after ResetStats has zeroed it
	Walks uint64
}

// The baseline entry counts (Table 1).
const (
	DTLB1Entries = 64
	TLB2Entries  = 512
)

// New returns a TLB hierarchy for the given page size with the baseline
// entry counts.
func New(page mem.PageSize) *Hierarchy {
	return &Hierarchy{page: page, dtlb1: newTLBLevel(DTLB1Entries), tlb2: newTLBLevel(TLB2Entries)}
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

// State is the serialized state of one TLB hierarchy: its resident
// translations. Walks is not part of it: a snapshot is taken after the
// barrier's ResetStats, where the count is zero.
type State struct {
	DTLB1 LevelState
	TLB2  LevelState
}

func (t *tlbLevel) saveState() LevelState {
	vpns := append([]uint64(nil), t.vpns...)
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	st := LevelState{VPNs: vpns, Stamps: make([]uint64, len(vpns)), Clock: t.clock}
	for i, v := range vpns {
		st.Stamps[i] = t.stamps[t.slot.get(v)]
	}
	return st
}

// restoreState replaces the level's contents with st's, refilling the index
// it has rather than making one. After an error the level must be
// discarded.
func (t *tlbLevel) restoreState(st LevelState) error {
	if len(st.VPNs) != len(st.Stamps) {
		return fmt.Errorf("tlb: %d VPNs but %d stamps", len(st.VPNs), len(st.Stamps))
	}
	if len(st.VPNs) > t.entries {
		return fmt.Errorf("tlb: state has %d entries, level holds %d", len(st.VPNs), t.entries)
	}
	t.slot.clear()
	for i, v := range st.VPNs {
		if t.slot.get(v) >= 0 {
			return fmt.Errorf("tlb: duplicate VPN %#x in state", v)
		}
		t.slot.put(v, int32(i))
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

// SaveState serializes the hierarchy's resident translations.
func (h *Hierarchy) SaveState() State {
	return State{DTLB1: h.dtlb1.saveState(), TLB2: h.tlb2.saveState()}
}

// RestoreState replaces the hierarchy's state with a previously saved one.
func (h *Hierarchy) RestoreState(st State) error {
	if err := h.dtlb1.restoreState(st.DTLB1); err != nil {
		return fmt.Errorf("DTLB1: %w", err)
	}
	if err := h.tlb2.restoreState(st.TLB2); err != nil {
		return fmt.Errorf("TLB2: %w", err)
	}
	return nil
}

// ResetStats clears the walk counter, keeping the resident translations
// (warmup barrier semantics).
func (h *Hierarchy) ResetStats() {
	h.Walks = 0
}
