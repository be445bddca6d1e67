package tlb

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bopsim/internal/mem"
)

// scanLevel is the oracle for tlbLevel's recency list: the implementation
// the list replaced, which finds its LRU victim by scanning every stamp for
// the minimum. It shares LevelState with the real level so the two can be
// restored from one another's snapshots.
//
// It runs under one of two stamping rules. The ticking rule is the original
// one: every access and every probe hit ticks the clock and stamps the entry
// it touches, so a stamp is the time of the entry's latest touch. It is the
// reference for decisions — hit or miss at every step, and the recency order
// — and says nothing about stamp values. Under the still-MRU rule, which is
// tlbLevel's, touching the entry that already holds the largest stamp neither
// ticks nor stamps: it is most recent already, so no order changes. Only an
// oracle under that rule is compared with a level byte for byte.
type scanLevel struct {
	entries  int
	stillMRU bool
	slot     map[uint64]int
	vpns     []uint64
	stamps   []uint64
	clock    uint64
}

func newScanLevel(entries int, stillMRU bool) *scanLevel {
	return &scanLevel{entries: entries, stillMRU: stillMRU, slot: make(map[uint64]int, entries)}
}

// touch refreshes slot i under the oracle's rule.
func (t *scanLevel) touch(i int) {
	if t.stillMRU && t.stamps[i] == slices.Max(t.stamps) {
		return
	}
	t.clock++
	t.stamps[i] = t.clock
}

func (t *scanLevel) access(vpn uint64) bool {
	if i, ok := t.slot[vpn]; ok {
		t.touch(i)
		return true
	}
	t.clock++
	if len(t.vpns) >= t.entries {
		victim, best := 0, ^uint64(0)
		for i, s := range t.stamps {
			if s < best {
				victim, best = i, s
			}
		}
		delete(t.slot, t.vpns[victim])
		t.vpns[victim] = vpn
		t.stamps[victim] = t.clock
		t.slot[vpn] = victim
		return false
	}
	t.vpns = append(t.vpns, vpn)
	t.stamps = append(t.stamps, t.clock)
	t.slot[vpn] = len(t.vpns) - 1
	return false
}

func (t *scanLevel) probe(vpn uint64) bool {
	i, ok := t.slot[vpn]
	if ok {
		t.touch(i)
	}
	return ok
}

// state renders the oracle as a LevelState (VPNs sorted, as saveState does).
func (t *scanLevel) state() LevelState {
	st := LevelState{VPNs: slices.Clone(t.vpns), Clock: t.clock}
	slices.Sort(st.VPNs)
	for _, v := range st.VPNs {
		st.Stamps = append(st.Stamps, t.stamps[t.slot[v]])
	}
	return st
}

func (t *scanLevel) restore(st LevelState) {
	t.slot = make(map[uint64]int, t.entries)
	for i, v := range st.VPNs {
		t.slot[v] = i
	}
	t.vpns = append([]uint64(nil), st.VPNs...)
	t.stamps = append([]uint64(nil), st.Stamps...)
	t.clock = st.Clock
}

// recency lists a level's VPNs most recent first.
func recency(st LevelState) []uint64 {
	order := slices.Clone(st.VPNs)
	rank := make(map[uint64]uint64, len(order))
	for i, v := range st.VPNs {
		rank[v] = st.Stamps[i]
	}
	slices.SortFunc(order, func(a, b uint64) int { return cmp.Compare(rank[b], rank[a]) })
	return order
}

// oracles is the pair of scanning oracles one level is checked against.
type oracles struct{ ticking, exact *scanLevel }

func newOracles(entries int) oracles {
	return oracles{newScanLevel(entries, false), newScanLevel(entries, true)}
}

func (o oracles) restore(st LevelState) {
	o.ticking.restore(st)
	o.exact.restore(st)
}

// checkAgainstScan drives lvl and both scanning oracles with one random
// stream of accesses and probes over a VPN universe somewhat larger than the
// level. Every step must decide as the ticking oracle decides; at the end the
// recency order must be the ticking oracle's and the LevelState the still-MRU
// oracle's. Phases of locality (a hot subset) alternate with uniform traffic
// so hits reorder the list between evictions, and with runs on a single VPN,
// where every access after the first hits the most recent entry (access's
// check ahead of the map). A stream long enough to hold such a run must have
// sent a share of its accesses down that check.
func checkAgainstScan(t *testing.T, lvl *tlbLevel, o oracles, rng *rand.Rand, steps int) {
	t.Helper()
	universe := lvl.entries + lvl.entries/2 + 3
	mruHits := 0
	for i := 0; i < steps; i++ {
		vpn := uint64(rng.Intn(universe))
		switch phase := i / 97; phase % 3 {
		case 1:
			vpn = uint64(rng.Intn(lvl.entries/2 + 1))
		case 2:
			vpn = uint64(phase*31) % uint64(universe)
		}
		if rng.Intn(4) == 0 {
			got, want := lvl.probe(vpn), o.ticking.probe(vpn)
			if o.exact.probe(vpn) != want || got != want {
				t.Fatalf("step %d: probe(%d) = %v, scanning oracle says %v", i, vpn, got, want)
			}
			continue
		}
		if lvl.mru >= 0 && lvl.vpns[lvl.mru] == vpn {
			mruHits++
		}
		got, want := lvl.access(vpn), o.ticking.access(vpn)
		if o.exact.access(vpn) != want || got != want {
			t.Fatalf("step %d: access(%d) hit = %v, scanning oracle says %v", i, vpn, got, want)
		}
	}
	if steps >= 3*97 && mruHits < steps/16 {
		t.Fatalf("%d of %d steps hit the most recent entry: the single-VPN runs did not reach access's check", mruHits, steps)
	}
	got := lvl.saveState()
	if want := recency(o.ticking.state()); !slices.Equal(recency(got), want) {
		t.Fatalf("after %d steps the level's recency order differs from the scanning oracle's\n got %v\nwant %v", steps, recency(got), want)
	}
	if want := o.exact.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d steps the level's state differs from the still-MRU oracle's\n got %+v\nwant %+v", steps, got, want)
	}
}

func TestFirstAccessWalks(t *testing.T) {
	h := New(mem.Page4K)
	if lat := h.Access(0x1000); lat != TLB2HitPenalty+PageWalkPenalty {
		t.Errorf("cold access latency = %d, want %d", lat, TLB2HitPenalty+PageWalkPenalty)
	}
	if h.Walks != 1 {
		t.Errorf("Walks = %d, want 1", h.Walks)
	}
}

func TestSecondAccessHitsDTLB1(t *testing.T) {
	h := New(mem.Page4K)
	h.Access(0x1000)
	if lat := h.Access(0x1008); lat != 0 {
		t.Errorf("warm access latency = %d, want 0", lat)
	}
}

func TestDTLB1EvictionFallsBackToTLB2(t *testing.T) {
	h := NewWithSizes(mem.Page4K, 2, 8)
	h.Access(0x1000)
	h.Access(0x2000)
	h.Access(0x3000) // evicts page of 0x1000 from DTLB1 but not TLB2
	if lat := h.Access(0x1000); lat != TLB2HitPenalty {
		t.Errorf("TLB2-hit latency = %d, want %d", lat, TLB2HitPenalty)
	}
}

func TestTrueLRUInDTLB1(t *testing.T) {
	h := NewWithSizes(mem.Page4K, 2, 64)
	h.Access(0x1000)
	h.Access(0x2000)
	h.Access(0x1000) // page 1 is now MRU
	h.Access(0x3000) // should evict page 2
	if lat := h.Access(0x1000); lat != 0 {
		t.Error("MRU page was evicted from DTLB1")
	}
	if lat := h.Access(0x2000); lat == 0 {
		t.Error("LRU page was not evicted from DTLB1")
	}

	// The recency list must pick the victim the stamp scan picks, at every
	// size the hierarchy uses and at the degenerate ones.
	for _, entries := range []int{1, 2, 3, 64, 512} {
		rng := rand.New(rand.NewSource(int64(entries)))
		checkAgainstScan(t, newTLBLevel(entries), newOracles(entries), rng, 40*entries+2000)
	}
}

func Test4MBPagesCoverMoreAddresses(t *testing.T) {
	small := New(mem.Page4K)
	big := New(mem.Page4M)
	// Stride through 16MB at 4KB steps: 4096 distinct 4KB pages but only 4
	// distinct 4MB pages.
	for pass := 0; pass < 2; pass++ {
		for a := mem.Addr(0); a < 16<<20; a += 4096 {
			small.Access(a)
			big.Access(a)
		}
	}
	if big.Walks > 4 {
		t.Errorf("4MB pages walked %d times, want <= 4", big.Walks)
	}
	if small.Walks <= big.Walks {
		t.Errorf("4KB walks (%d) not greater than 4MB walks (%d)", small.Walks, big.Walks)
	}
}

func TestProbeTLB2DoesNotAllocate(t *testing.T) {
	h := New(mem.Page4K)
	if h.ProbeTLB2(0x5000) {
		t.Error("probe hit in empty TLB2")
	}
	// Still absent: probe must not allocate.
	if h.ProbeTLB2(0x5000) {
		t.Error("probe allocated an entry")
	}
	h.Access(0x5000)
	if !h.ProbeTLB2(0x5000) {
		t.Error("probe missed after demand access")
	}
}

func TestMissCountersAdvance(t *testing.T) {
	h := New(mem.Page4K)
	for i, c := range []struct {
		va  mem.Addr
		lat uint64
	}{{0x1000, TLB2HitPenalty + PageWalkPenalty}, {0x2000, TLB2HitPenalty + PageWalkPenalty}, {0x1000, 0}} {
		if lat := h.Access(c.va); lat != c.lat {
			t.Errorf("access %d (%#x): latency %d, want %d", i, c.va, lat, c.lat)
		}
	}
	if h.Walks != 2 {
		t.Errorf("Walks = %d, want 2", h.Walks)
	}
}

// TestTouchingMostRecentChangesNothing: an access or a TLB2 probe of the
// page that is already most recent in its level leaves the level's state, and
// the hierarchy's, exactly as it was: no clock tick, no new stamp.
func TestTouchingMostRecentChangesNothing(t *testing.T) {
	for _, entries := range []int{1, 2, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		lvl := newTLBLevel(entries)
		for i := 0; i < 4*entries; i++ {
			lvl.access(uint64(rng.Intn(2 * entries)))
		}
		before := lvl.saveState()
		mru := lvl.vpns[lvl.mru]
		if !lvl.access(mru) || !lvl.probe(mru) {
			t.Fatalf("%d entries: the most recent entry missed", entries)
		}
		if after := lvl.saveState(); !reflect.DeepEqual(after, before) {
			t.Errorf("%d entries: re-touching the most recent entry moved the level\nbefore %+v\nafter  %+v", entries, before, after)
		}
	}

	h := New(mem.Page4K)
	h.Access(0x1000)
	h.Access(0x2000)
	before := h.SaveState()
	if lat := h.Access(0x2008); lat != 0 || !h.ProbeTLB2(0x2010) {
		t.Fatalf("the most recent page missed: latency %d", lat)
	}
	if after := h.SaveState(); !reflect.DeepEqual(after, before) {
		t.Errorf("re-touching the most recent page moved the hierarchy\nbefore %+v\nafter  %+v", before, after)
	}
}

// TestVPNIndexAgainstMap drives the VPN index and a map with one random
// stream of the operations a level makes — put an absent VPN while the level
// has room, remove a resident one, look one up — over VPNs that crowd few
// home positions, so that probe runs wrap around the table and a removal
// has entries to shift back. After every step get must agree with the map
// for every VPN of the universe, and the table must have kept its size.
func TestVPNIndexAgainstMap(t *testing.T) {
	for _, entries := range []int{1, 4, 64} {
		rng := rand.New(rand.NewSource(int64(entries)))
		x := newVPNIndex(entries)
		size := len(x.slots)
		oracle := make(map[uint64]int32)
		universe := make([]uint64, 3*entries+2)
		for i := range universe {
			// Half the universe is multiples of a large power of two, which
			// Fibonacci hashing sends to few homes; half is consecutive.
			universe[i] = uint64(i)
			if i%2 == 0 {
				universe[i] = uint64(i) << 40
			}
		}
		for step := 0; step < 20000; step++ {
			vpn := universe[rng.Intn(len(universe))]
			_, resident := oracle[vpn]
			switch {
			case resident && rng.Intn(2) == 0:
				x.remove(vpn)
				delete(oracle, vpn)
			case !resident && len(oracle) < entries:
				slot := int32(rng.Intn(entries))
				x.put(vpn, slot)
				oracle[vpn] = slot
			}
			if len(x.slots) != size {
				t.Fatalf("%d entries, step %d: the table grew from %d to %d positions", entries, step, size, len(x.slots))
			}
			for _, v := range universe {
				want, ok := oracle[v]
				if !ok {
					want = -1
				}
				if got := x.get(v); got != want {
					t.Fatalf("%d entries, step %d: get(%#x) = %d, the map holds %d", entries, step, v, got, want)
				}
			}
		}
	}
}
