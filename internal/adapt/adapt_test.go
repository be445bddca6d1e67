package adapt

import (
	"fmt"
	"testing"

	"bopsim/internal/core"
	"bopsim/internal/mem"
	"bopsim/internal/multi"
	"bopsim/internal/prefetch"
)

// Fake base behaviors: what the base issues per eligible access. The behavior
// is set directly by tests (not by Retune), so each controller transition can
// be observed in isolation.
const (
	behaveSilent = iota // issue nothing: the window looks starved
	behaveJunk          // issue a far line nobody demands: accuracy 0
	behaveUseful        // issue the next line of a sequential stream: accuracy 100
)

// fakeBase is a scripted Retunable base that records every Retune call.
type fakeBase struct {
	behavior int
	retunes  []string
	failKey  string
}

func (f *fakeBase) Name() string { return "fake" }

func (f *fakeBase) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if !a.Eligible() {
		return nil
	}
	switch f.behavior {
	case behaveJunk:
		return []mem.LineAddr{a.Line + 1_000_000}
	case behaveUseful:
		return []mem.LineAddr{a.Line + 1}
	}
	return nil
}

func (f *fakeBase) OnFill(mem.LineAddr, bool) {}
func (f *fakeBase) RetunableKeys() []string   { return []string{"gain"} }

func (f *fakeBase) Retune(key, value string) error {
	if key == f.failKey {
		return fmt.Errorf("fake: key %q rejected", key)
	}
	f.retunes = append(f.retunes, key+"="+value)
	return nil
}

// harness mirrors the duel tests' hierarchy emulation: every target is filled
// as a prefetch, and a later access to it arrives as a prefetched hit.
type harness struct {
	pf         prefetch.L2Prefetcher
	prefetched map[mem.LineAddr]bool
}

func newHarness(pf prefetch.L2Prefetcher) *harness {
	return &harness{pf: pf, prefetched: make(map[mem.LineAddr]bool)}
}

func (h *harness) access(line mem.LineAddr) {
	a := prefetch.AccessInfo{Line: line}
	if h.prefetched[line] {
		a.Hit, a.PrefetchedHit = true, true
		delete(h.prefetched, line)
	}
	for _, t := range h.pf.OnAccess(a) {
		h.pf.OnFill(t, true)
		h.prefetched[t] = true
	}
}

// fakeParams is a short-window configuration over a 4-level custom ladder.
func fakeParams() Params {
	return Params{
		Base:     prefetch.MustSpec("offset:d=7"), // identity label only; the fake ignores it
		Window:   64,
		Lo:       30,
		Hi:       60,
		MinFills: 8,
		Recent:   256,
		Key:      "gain",
		Levels:   []string{"1", "2", "3", "4"},
	}
}

// runWindows drives exactly n whole monitoring windows of sequential traffic.
func runWindows(t *testing.T, pf *Prefetcher, h *harness, start mem.LineAddr, n int) mem.LineAddr {
	t.Helper()
	line := start
	for i := 0; i < n*pf.params.Window; i++ {
		h.access(line)
		line++
	}
	return line
}

// TestControllerMovesOneLevelPerWindow walks the three controller verdicts on
// a scripted base: starved windows climb, inaccurate windows descend,
// accurate windows climb, and the ladder clamps at both ends without
// counting a retune.
func TestControllerMovesOneLevelPerWindow(t *testing.T) {
	base := &fakeBase{behavior: behaveSilent}
	pf, err := New(fakeParams(), base)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Level() != 0 {
		t.Fatalf("custom ladder starts at level %d, want 0", pf.Level())
	}
	h := newHarness(pf)

	// Starved: no fills at all, so each window climbs one level until the
	// top, where further starved windows are clamped (no retune counted).
	line := runWindows(t, pf, h, 0, 5)
	if pf.Level() != 3 {
		t.Fatalf("after 5 starved windows: level %d, want clamped at 3", pf.Level())
	}
	if got := pf.Stats().Retunes; got != 3 {
		t.Fatalf("after 5 starved windows: %d retunes, want 3 (clamped windows do not retune)", got)
	}

	// Inaccurate: plenty of fills, none demanded, so each window descends
	// one level until the bottom clamp.
	base.behavior = behaveJunk
	line = runWindows(t, pf, h, line, 5)
	if pf.Level() != 0 {
		t.Fatalf("after 5 inaccurate windows: level %d, want clamped at 0", pf.Level())
	}
	if got := pf.Stats().Retunes; got != 6 {
		t.Fatalf("after inaccurate windows: %d retunes, want 6", got)
	}

	// Accurate: sequential stream demands every fill next access, so the
	// ladder climbs again.
	base.behavior = behaveUseful
	runWindows(t, pf, h, line, 2)
	if pf.Level() != 2 {
		t.Fatalf("after 2 accurate windows: level %d, want 2", pf.Level())
	}

	// Every level move landed on the base as a Retune of the ladder key.
	for _, r := range base.retunes {
		if r[:5] != "gain=" {
			t.Fatalf("unexpected retune %q", r)
		}
	}
	// New's validation walk applies levels 1,2,3,4 then start level 1; the 8
	// controller moves follow.
	if got := len(base.retunes); got != 5+8 {
		t.Fatalf("base saw %d retunes, want 13 (5 from construction, 8 from the controller)", got)
	}
}

// TestNewValidation covers the constructor's rejection paths: a ladder level
// the base refuses, a one-level custom ladder, levels without a key, and a
// base with no built-in ladder and no custom one.
func TestNewValidation(t *testing.T) {
	if _, err := New(fakeParams(), &fakeBase{failKey: "gain"}); err == nil {
		t.Error("ladder the base rejects was accepted")
	}

	short := fakeParams()
	short.Levels = []string{"1"}
	if _, err := New(short, &fakeBase{}); err == nil {
		t.Error("single-level ladder was accepted")
	}

	nobuiltin := fakeParams()
	nobuiltin.Key, nobuiltin.Levels = "", nil
	if _, err := New(nobuiltin, &fakeBase{}); err == nil {
		t.Error("base without a built-in ladder and no custom one was accepted")
	}

	bad := fakeParams()
	bad.Window = 0
	if _, err := New(bad, &fakeBase{}); err == nil {
		t.Error("window=0 was accepted")
	}

	band := fakeParams()
	band.Lo, band.Hi = 70, 30
	if _, err := New(band, &fakeBase{}); err == nil {
		t.Error("inverted accuracy band was accepted")
	}

	if _, err := New(fakeParams(), prefetch.NewFixedOffset(mem.Page4K, 1)); err == nil {
		t.Error("non-Retunable base was accepted")
	}
}

// TestRetuneLandsOnRealBase pins that the built-in multi ladder actually
// moves the wrapped prefetcher's gating: a descent to the most conservative
// level must raise multi's score bar enough that a weak stream's offsets are
// disabled, where the aggressive level keeps them.
func TestRetuneLandsOnRealBase(t *testing.T) {
	gate := func(level int) int {
		mp := multi.New(mem.Page4M, multi.DefaultParams())
		p := DefaultParams()
		p.Base = prefetch.MustSpec("multi")
		p.Window = 1 << 30 // never let the controller move the seeded level
		pf, err := New(p, mp)
		if err != nil {
			t.Fatal(err)
		}
		if err := pf.apply(level); err != nil {
			t.Fatal(err)
		}
		// A weak stream: one adjacent pair per 16 accesses scores offset 1
		// about 16 points per 256-access multi window — above minscore 6,
		// below minscore 48. The isolated accesses stride 997, scoring no
		// configured offset.
		h := newHarness(pf)
		line := mem.LineAddr(0)
		isolated := 0
		for i := 0; i < 6000; i++ {
			if i%16 == 15 {
				h.access(line + 1)
				continue
			}
			isolated++
			line = mem.LineAddr(isolated * 997 % 60000)
			h.access(line)
		}
		return len(mp.EnabledOffsets())
	}
	lad, ok := builtinLadder("multi")
	if !ok {
		t.Fatal("no built-in multi ladder")
	}
	conservative := gate(0)
	aggressive := gate(len(lad.levels) - 1)
	if conservative >= aggressive {
		t.Errorf("minscore ladder has no effect: %d offsets enabled at level 0, %d at top level",
			conservative, aggressive)
	}
}

// TestSteadyStateZeroAlloc pins the wrapper's own hot-path cost over a real
// bo base: accesses, fills and window boundaries allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	p := DefaultParams()
	p.Base = prefetch.MustSpec("bo")
	p.Window = 256
	pf, err := New(p, core.New(mem.Page4M, core.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	line := mem.LineAddr(0)
	step := func() {
		targets := pf.OnAccess(prefetch.AccessInfo{Line: line})
		for _, tgt := range targets {
			pf.OnFill(tgt, true)
		}
		line = (line + 3) % (1 << 20)
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg != 0 {
		t.Errorf("steady-state OnAccess+OnFill allocates %.3f objects/op, want 0", avg)
	}
}
