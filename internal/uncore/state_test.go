package uncore

import (
	"strings"
	"testing"

	"bopsim/internal/cache"
	"bopsim/internal/mem"
)

// TestRestoreRejectsForeignOwnerCore checks that a state whose packed line
// names an owner core the hierarchy does not have is refused at every cache
// level: the owner indexes per-core structures downstream, so accepting it
// would panic mid-run.
func TestRestoreRejectsForeignOwnerCore(t *testing.T) {
	saved, err := New(DefaultConfig(1, mem.Page4K), nil, nil, nil).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// One valid clean line at index 0, address 0x40 (cache.State.Lines); only
	// the owner differs between the accepted and the refused record.
	line := func(core byte) []byte { return []byte{1, 0x40, 0, core} }
	levels := map[string]func(*State) *cache.State{
		"DL1": func(st *State) *cache.State { return &st.DL1[0] },
		"L2":  func(st *State) *cache.State { return &st.L2[0] },
		"L3":  func(st *State) *cache.State { return &st.L3 },
	}
	for name, level := range levels {
		for core, wantOK := range map[byte]bool{0: true, 1: false} {
			st := saved
			st.DL1 = append([]cache.State(nil), saved.DL1...)
			st.L2 = append([]cache.State(nil), saved.L2...)
			level(&st).Lines = line(core)
			err := New(DefaultConfig(1, mem.Page4K), nil, nil, nil).RestoreState(st)
			switch {
			case wantOK && err != nil:
				t.Errorf("%s line owned by core %d refused: %v", name, core, err)
			case !wantOK && err == nil:
				t.Errorf("%s line owned by core %d accepted by a 1-core hierarchy", name, core)
			case !wantOK && !strings.Contains(err.Error(), "owned by core 1"):
				t.Errorf("%s line owned by core %d refused for another reason: %v", name, core, err)
			}
		}
	}
}

// TestRestoreDropsMemos checks that no attempt after a restore can be
// answered from a refusal remembered before it. A drained hierarchy's memos
// are stale anyway (draining moved every version they hold), so the test
// plants fresh ones — the state RestoreState must not rely on never meeting.
func TestRestoreDropsMemos(t *testing.T) {
	h := New(DefaultConfig(1, mem.Page4K), nil, nil, nil)
	saved, err := h.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	r := &h.retry[0]
	r.demand = demandMemo{ok: true, va: 0x1000, front: r.front}
	r.head = pathMemo{ok: true, line: 7, priv: r.priv, shared: h.shared, reads: h.mem.ReadVersion()}
	r.pref = pathMemo{ok: true, line: 9, shared: h.shared, reads: h.mem.ReadVersion()}
	if !h.DispatchStalled(0, 0x1000) || !h.headRefused(0, 7) || !h.prefetchRefused(0, 9) {
		t.Fatal("the planted memos do not hold: the test no longer plants what the hierarchy checks")
	}
	if err := h.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	if h.DispatchStalled(0, 0x1000) || h.headRefused(0, 7) || h.prefetchRefused(0, 9) {
		t.Error("a refusal memo survived RestoreState")
	}
}

// TestRestoreLeavesFiltersZero checks the fill queues' line filters across a
// checkpoint, which does not serialize them: a queue drained by traffic has
// a zero filter (popReady's rebuild clears what its entries set), so the
// hierarchy a snapshot is taken from and the one it is restored onto both
// search with no bit left set.
func TestRestoreLeavesFiltersZero(t *testing.T) {
	h := New(DefaultConfig(2, mem.Page4K), nil, nil, nil)
	zero := func(when string) {
		t.Helper()
		for c, q := range append([]*fillQueue{h.l3fq}, h.l2fq...) {
			if q.filter != (lineFilter{}) {
				t.Errorf("%s: fill queue %d (0 is the L3's) is empty but its filter is %x", when, c, q.filter)
			}
		}
	}
	var peak int
	now := uint64(0)
	for ; now < 20_000; now++ {
		for c := range 2 {
			if _, done, ok := h.Demand(c, 0x400, mem.Addr(now*4160+uint64(c)<<30), false, now); ok && done != nil {
				h.Release(done)
			}
		}
		h.Tick(now)
		peak = max(peak, h.l3fq.len())
	}
	drain(t, h, now, 100_000)
	if peak < 2 {
		t.Fatalf("the L3 fill queue held at most %d entries: the traffic no longer fills it", peak)
	}
	zero("drained")
	saved, err := h.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if err := h.RestoreState(saved); err != nil {
		t.Fatal(err)
	}
	zero("restored")
}
