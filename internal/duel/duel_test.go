package duel

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// harness emulates the hierarchy's side of the prefetcher contract: every
// OnAccess target is filled as a prefetch, and an access to a line that was
// prefetch-filled arrives as a prefetched hit (still eligible), which is
// exactly the event duel's scoring consumes.
type harness struct {
	pf         prefetch.L2Prefetcher
	prefetched map[mem.LineAddr]bool
}

func newHarness(pf prefetch.L2Prefetcher) *harness {
	return &harness{pf: pf, prefetched: make(map[mem.LineAddr]bool)}
}

// access drives one demand access and the fills it provokes, returning the
// issued targets.
func (h *harness) access(line mem.LineAddr) []mem.LineAddr {
	a := prefetch.AccessInfo{Line: line}
	if h.prefetched[line] {
		a.Hit, a.PrefetchedHit = true, true
		delete(h.prefetched, line)
	}
	targets := h.pf.OnAccess(a)
	for _, t := range targets {
		h.pf.OnFill(t, true)
		h.prefetched[t] = true
	}
	return targets
}

// testParams keeps windows short and partitions dense so a few thousand
// accesses settle the duel.
func testParams() Params {
	return Params{
		Period: 256,
		Margin: 2,
		Sets:   64,
		Sample: 4,
		Recent: 512,
	}
}

const pageLines = 65536 // 4MB page in 64B lines

// chunkedPhase is the short-stride phase: 16-line sequential bursts whose
// bases sit 997 lines apart, so offset 1 covers 15/16 accesses and offset 33
// covers none.
func chunkedPhase(h *harness, page mem.LineAddr, accesses int) {
	base := page * pageLines
	for i := 0; i < accesses/16; i++ {
		for j := mem.LineAddr(0); j < 16; j++ {
			h.access(base + mem.LineAddr(i)*997 + j)
		}
	}
}

// stridePhase is the long-stride phase: a stride-33 stream (33 is odd, so
// the walk visits every set of a power-of-two set count), wrapping inside
// one page; offset 33 covers nearly every access and offset 1 covers none.
func stridePhase(h *harness, page mem.LineAddr, accesses int) {
	base := page * pageLines
	for i := 0; i < accesses; i++ {
		h.access(base + mem.LineAddr(i*33%65000))
	}
}

// TestConvergesToBetterCandidatePerPhase is the acceptance scenario: two
// candidates that each lose one phase of a phase-switching workload. The
// duel must seat the short-stride specialist during chunked phases and the
// long-stride specialist during strided phases, switching both ways.
func TestConvergesToBetterCandidatePerPhase(t *testing.T) {
	pf := New(testParams(),
		prefetch.NewFixedOffset(mem.Page4M, 1),
		prefetch.NewFixedOffset(mem.Page4M, 33))
	h := newHarness(pf)

	chunkedPhase(h, 0, 4096) // 16 windows
	if got := pf.Winner(); got != ownerA {
		t.Fatalf("after chunked phase: winner %d, want A (%d); stats %+v", got, ownerA, pf.Stats())
	}
	stridePhase(h, 8, 4096)
	if got := pf.Winner(); got != ownerB {
		t.Fatalf("after strided phase: winner %d, want B (%d); stats %+v", got, ownerB, pf.Stats())
	}
	chunkedPhase(h, 16, 4096)
	if got := pf.Winner(); got != ownerA {
		t.Fatalf("after second chunked phase: winner %d, want A (%d); stats %+v", got, ownerA, pf.Stats())
	}
	if s := pf.Stats(); s.Switches < 2 {
		t.Errorf("expected at least 2 seat switches, got %+v", s)
	}
}

// TestSteadyStateZeroAlloc pins duel's own hot-path cost: once the mark
// tables exist, accesses, fills and window boundaries allocate nothing.
func TestSteadyStateZeroAlloc(t *testing.T) {
	pf := New(testParams(),
		prefetch.NewFixedOffset(mem.Page4M, 1),
		prefetch.NewFixedOffset(mem.Page4M, 33))
	line := mem.LineAddr(0)
	step := func() {
		targets := pf.OnAccess(prefetch.AccessInfo{Line: line})
		for _, tgt := range targets {
			pf.OnFill(tgt, true)
		}
		line = (line + 33) % (1 << 20)
	}
	for i := 0; i < 10_000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(5000, step); avg != 0 {
		t.Errorf("steady-state OnAccess+OnFill allocates %.3f objects/op, want 0", avg)
	}
}
