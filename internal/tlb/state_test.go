package tlb

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"

	"bopsim/internal/mem"
)

// TestTLBStateRoundTrip warms a TLB hierarchy, saves its state, checks the
// encoding is byte-stable, restores into a fresh hierarchy and verifies it
// behaves identically from there on.
func TestTLBStateRoundTrip(t *testing.T) {
	h := New(mem.Page4K)
	for i := 0; i < 2000; i++ {
		h.Access(mem.Addr(i*7) << 12)
	}
	st := h.SaveState()

	var a bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := gob.NewDecoder(bytes.NewReader(a.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("TLB state encode -> decode -> encode is not byte-stable")
	}

	fresh := New(mem.Page4K)
	if err := fresh.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SaveState(), st) {
		t.Fatal("restored TLB state differs from saved state")
	}
	// Identical access streams must produce identical latencies (hits,
	// misses and walk decisions all depend on the restored LRU state).
	for i := 0; i < 3000; i++ {
		va := mem.Addr(i*13) << 12
		if l1, l2 := h.Access(va), fresh.Access(va); l1 != l2 {
			t.Fatalf("access %d: latency %d on original, %d on restored", i, l1, l2)
		}
	}
	if h.Walks != fresh.Walks || h.DTLB1Misses() != fresh.DTLB1Misses() || h.TLB2Misses() != fresh.TLB2Misses() {
		t.Fatal("counters diverged under identical traffic after restore")
	}

	// Restore-then-continue against the scanning oracle: the list rebuilt
	// from a snapshot's stamps must evict in the order the stamps dictate,
	// through repeated save/restore cycles at arbitrary fill levels.
	rng := rand.New(rand.NewSource(7))
	for _, entries := range []int{2, 64, 512} {
		lvl, oracle := newTLBLevel(entries), newScanLevel(entries)
		for round := 0; round < 6; round++ {
			checkAgainstScan(t, lvl, oracle, rng, rng.Intn(3*entries)+entries/2)
			snap := lvl.saveState()
			lvl = newTLBLevel(entries)
			if err := lvl.restoreState(snap); err != nil {
				t.Fatal(err)
			}
			oracle.restore(snap)
		}
	}
}

// TestTLBRestoreRejectsBadState checks malformed level states are refused.
func TestTLBRestoreRejectsBadState(t *testing.T) {
	h := New(mem.Page4K)
	st := h.SaveState()

	oversized := st
	oversized.DTLB1.VPNs = make([]uint64, 100)
	oversized.DTLB1.Stamps = make([]uint64, 100)
	for i := range oversized.DTLB1.VPNs {
		oversized.DTLB1.VPNs[i] = uint64(i)
	}
	if err := New(mem.Page4K).RestoreState(oversized); err == nil {
		t.Error("restore with more entries than the level holds succeeded")
	}

	ragged := st
	ragged.TLB2.VPNs = []uint64{1, 2}
	ragged.TLB2.Stamps = []uint64{1}
	if err := New(mem.Page4K).RestoreState(ragged); err == nil {
		t.Error("restore with mismatched VPN/stamp lengths succeeded")
	}

	tied := st
	tied.TLB2.VPNs = []uint64{5, 6}
	tied.TLB2.Stamps = []uint64{3, 3}
	tied.TLB2.Clock = 9
	if err := New(mem.Page4K).RestoreState(tied); err == nil {
		t.Error("restore with two entries sharing one LRU stamp succeeded")
	}
	tied.TLB2.Stamps = []uint64{3, 10}
	if err := New(mem.Page4K).RestoreState(tied); err == nil {
		t.Error("restore with a stamp ahead of the level's clock succeeded")
	}

	dup := st
	dup.TLB2.VPNs = []uint64{5, 5}
	dup.TLB2.Stamps = []uint64{1, 2}
	if err := New(mem.Page4K).RestoreState(dup); err == nil {
		t.Error("restore with duplicate VPNs succeeded")
	}
}

// TestTLBResetStats checks the barrier reset clears counters but keeps
// residency.
func TestTLBResetStats(t *testing.T) {
	h := New(mem.Page4K)
	for i := 0; i < 100; i++ {
		h.Access(mem.Addr(i) << 12)
	}
	if h.DTLB1Misses() == 0 {
		t.Fatal("warmup produced no misses")
	}
	h.ResetStats()
	if h.Walks != 0 || h.DTLB1Misses() != 0 || h.TLB2Misses() != 0 {
		t.Fatal("ResetStats left counters non-zero")
	}
	// Residency kept: re-touching a recently used page still hits (page 99
	// is the most recent of the warmup sweep, so it survived the DTLB1's
	// 64-entry LRU).
	before := h.DTLB1Misses()
	h.Access(mem.Addr(99) << 12)
	if h.DTLB1Misses() != before {
		t.Fatal("ResetStats dropped TLB residency")
	}
}
