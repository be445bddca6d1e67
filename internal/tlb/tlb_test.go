package tlb

import (
	"math/rand"
	"reflect"
	"testing"

	"bopsim/internal/mem"
)

// scanLevel is the oracle for tlbLevel's recency list: the implementation
// the list replaced, which finds its LRU victim by scanning every stamp for
// the minimum. It shares LevelState with the real level so the two can be
// compared byte for byte and restored from one another's snapshots.
type scanLevel struct {
	entries int
	slot    map[uint64]int
	vpns    []uint64
	stamps  []uint64
	clock   uint64
}

func newScanLevel(entries int) *scanLevel {
	return &scanLevel{entries: entries, slot: make(map[uint64]int, entries)}
}

func (t *scanLevel) access(vpn uint64) bool {
	t.clock++
	if i, ok := t.slot[vpn]; ok {
		t.stamps[i] = t.clock
		return true
	}
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
	if i, ok := t.slot[vpn]; ok {
		t.clock++
		t.stamps[i] = t.clock
		return true
	}
	return false
}

// state renders the oracle as a LevelState (VPNs sorted, as saveState does).
func (t *scanLevel) state() LevelState {
	real := &tlbLevel{slot: t.slot, vpns: t.vpns, stamps: t.stamps, clock: t.clock}
	return real.saveState()
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

// checkAgainstScan drives lvl and the scanning oracle with one random stream
// of accesses and probes over a VPN universe somewhat larger than the level,
// requiring the same outcome at every step and the same LevelState at the
// end. Phases of locality (a hot subset) alternate with uniform traffic so
// hits reorder the list between evictions, and with runs on a single VPN,
// where every access after the first hits the most recent entry (access's
// check ahead of the map). A stream long enough to hold such a run must have
// sent a share of its accesses down that check.
func checkAgainstScan(t *testing.T, lvl *tlbLevel, oracle *scanLevel, rng *rand.Rand, steps int) {
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
			if got, want := lvl.probe(vpn), oracle.probe(vpn); got != want {
				t.Fatalf("step %d: probe(%d) = %v, scanning oracle says %v", i, vpn, got, want)
			}
			continue
		}
		if lvl.mru >= 0 && lvl.vpns[lvl.mru] == vpn {
			mruHits++
		}
		if got, want := lvl.access(vpn), oracle.access(vpn); got != want {
			t.Fatalf("step %d: access(%d) hit = %v, scanning oracle says %v", i, vpn, got, want)
		}
	}
	if steps >= 3*97 && mruHits < steps/16 {
		t.Fatalf("%d of %d steps hit the most recent entry: the single-VPN runs did not reach access's check", mruHits, steps)
	}
	if got, want := lvl.saveState(), oracle.state(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after %d steps the level's state differs from the scanning oracle's\n got %+v\nwant %+v", steps, got, want)
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
		checkAgainstScan(t, newTLBLevel(entries), newScanLevel(entries), rng, 40*entries+2000)
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

// TestRepeatAccess holds RepeatAccess to what it abbreviates: on random
// streams of accesses and TLB2 probes, a hierarchy that answers every run of
// n immediate repeats of an access with one RepeatAccess(n) must stay
// state-identical (SaveState: stamps and clocks) to one that calls
// Access n more times, and its DTLB1
// to the scanning oracle — also when the repeat comes first thing after a
// restore, where the most recent entry is whatever the stamps say.
func TestRepeatAccess(t *testing.T) {
	for _, entries := range []int{1, 2, 3, 64, 512} {
		rng := rand.New(rand.NewSource(int64(entries)))
		fast, full := NewWithSizes(mem.Page4K, entries, 2*entries), NewWithSizes(mem.Page4K, entries, 2*entries)
		oracle := newScanLevel(entries)
		check := func(step int) {
			t.Helper()
			if got, want := fast.SaveState(), full.SaveState(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d entries, step %d: RepeatAccess left state\n%+v\nwhere Access leaves\n%+v", entries, step, got, want)
			}
			if got, want := fast.dtlb1.saveState(), oracle.state(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d entries, step %d: DTLB1 differs from the scanning oracle\n got %+v\nwant %+v", entries, step, got, want)
			}
		}
		universe := 2*entries + 3
		var last mem.Addr
		accessed := false
		for step := 0; step < 8*entries+400; step++ {
			switch rng.Intn(8) {
			case 0: // a TLB2 probe between an access and its repeats
				va := mem.Addr(rng.Intn(universe)) << 12
				if got, want := fast.ProbeTLB2(va), full.ProbeTLB2(va); got != want {
					t.Fatalf("%d entries, step %d: ProbeTLB2 = %v vs %v", entries, step, got, want)
				}
			case 1, 2, 3, 4: // the stalled core: the same access again
				if !accessed {
					continue // nothing to repeat yet
				}
				n := rng.Intn(5) * rng.Intn(5) // 0..16: one call for a whole skipped span
				fast.RepeatAccess(uint64(n))
				for i := 0; i < n; i++ {
					if lat := full.Access(last); lat != 0 {
						t.Fatalf("%d entries, step %d: a repeated access cost %d cycles", entries, step, lat)
					}
					oracle.access(mem.Page4K.PageOf(last))
				}
			case 5: // restore both from fast's snapshot, then repeat at once
				snap := fast.SaveState()
				fast, full = NewWithSizes(mem.Page4K, entries, 2*entries), NewWithSizes(mem.Page4K, entries, 2*entries)
				if err := fast.RestoreState(snap); err != nil {
					t.Fatal(err)
				}
				if err := full.RestoreState(snap); err != nil {
					t.Fatal(err)
				}
				oracle.restore(snap.DTLB1)
			default:
				accessed = true
				last = mem.Addr(rng.Intn(universe)) << 12
				if a, b := fast.Access(last), full.Access(last); a != b {
					t.Fatalf("%d entries, step %d: Access latency %d vs %d", entries, step, a, b)
				}
				oracle.access(mem.Page4K.PageOf(last))
			}
			if entries <= 64 || step%50 == 0 {
				check(step)
			}
		}
		check(-1)
	}
}
