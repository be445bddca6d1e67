package core

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// boSpec builds a prefetcher the way the "bo" registration does, from spec
// parameters over the defaults.
func boSpec(t *testing.T, v prefetch.Values) *Prefetcher {
	t.Helper()
	pf, err := buildSpec(mem.Page4M, v)
	if err != nil {
		t.Fatal(err)
	}
	return pf.(*Prefetcher)
}

func TestWithNegativeOffsets(t *testing.T) {
	base := []int{1, 2, 3}
	got := WithNegativeOffsets(base)
	if len(got) != 6 {
		t.Fatalf("len = %d, want 6", len(got))
	}
	want := []int{1, 2, 3, -1, -2, -3}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("offset[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestNegativeOffsetsAccepted(t *testing.T) {
	p := DefaultParams()
	p.Offsets = WithNegativeOffsets(p.Offsets)
	bo := New(mem.Page4M, p)
	// Exercise the full learning path with negative candidates present.
	driveStream(bo, 1<<20, 1, 60000, 4)
	if bo.Offset() == 0 {
		t.Error("learned offset 0")
	}
}

func TestNegativeOffsetLearnedOnBackwardStream(t *testing.T) {
	// A descending stream: only negative offsets are useful.
	p := DefaultParams()
	p.Offsets = WithNegativeOffsets(p.Offsets)
	bo := New(mem.Page4M, p)
	var pending []mem.LineAddr
	x := mem.LineAddr(1 << 24)
	for i := 0; i < 120000; i++ {
		targets := bo.OnAccess(miss(x))
		pending = append(pending, targets...)
		if len(pending) > 4 {
			bo.OnFill(pending[0], true)
			pending = pending[1:]
		}
		if !bo.Enabled() {
			bo.OnFill(x, false)
		}
		x--
	}
	if bo.Offset() >= 0 {
		t.Errorf("learned offset %d on a descending stream; want negative", bo.Offset())
	}
}

func TestNegativePrefetchTargetsBackward(t *testing.T) {
	p := DefaultParams()
	p.Offsets = []int{-4}
	bo := New(mem.Page4M, p)
	bo.d = -4 // as if learned
	got := bo.OnAccess(miss(100))
	if len(got) != 1 || got[0] != 96 {
		t.Errorf("targets = %v, want [96]", got)
	}
	// Near line 0, a backward prefetch must not underflow.
	if got := bo.OnAccess(miss(2)); got != nil {
		t.Errorf("underflowing backward prefetch issued: %v", got)
	}
}

func TestDegreeTwoIssuesTwoOffsets(t *testing.T) {
	bo := boSpec(t, prefetch.Values{"degree": "2"})
	bo.d = 8
	bo.d2 = 16
	got := bo.OnAccess(miss(1000))
	if len(got) != 2 || got[0] != 1008 || got[1] != 1016 {
		t.Errorf("degree-2 targets = %v, want [1008 1016]", got)
	}
}

func TestDegreeTwoLearnsSecondOffset(t *testing.T) {
	// Two interleaved stripes with periods 2 and 3 (section 3.3's example):
	// degree-2 should pick two distinct useful offsets after learning.
	bo := boSpec(t, prefetch.Values{"degree": "2"})
	var pending []mem.LineAddr
	x2 := mem.LineAddr(0)       // stream with stride 2
	x3 := mem.LineAddr(1 << 22) // stream with stride 3
	for i := 0; i < 120000; i++ {
		var x mem.LineAddr
		if i%2 == 0 {
			x = x2
			x2 += 2
		} else {
			x = x3
			x3 += 3
		}
		targets := bo.OnAccess(miss(x))
		pending = append(pending, targets...)
		for len(pending) > 6 {
			bo.OnFill(pending[0], true)
			pending = pending[1:]
		}
		if !bo.Enabled() {
			bo.OnFill(x, false)
		}
	}
	if bo.d2 == 0 {
		t.Error("degree-2 never installed a second offset")
	}
	if bo.d2 == bo.d {
		t.Error("second offset equals the first")
	}
}

func TestDegreeOneNeverUsesSecondOffset(t *testing.T) {
	bo := New(mem.Page4M, DefaultParams())
	driveStream(bo, 0, 1, 60000, 4)
	if bo.d2 != 0 {
		t.Errorf("degree-1 prefetcher installed d2=%d", bo.d2)
	}
}

func TestDegreeValidation(t *testing.T) {
	p := DefaultParams()
	p.Degree = 3
	defer func() {
		if recover() == nil {
			t.Error("Degree=3 accepted")
		}
	}()
	New(mem.Page4K, p)
}

func TestAdaptiveThrottleBounds(t *testing.T) {
	bo := boSpec(t, prefetch.Values{"adaptive": "true"})
	p := bo.params
	// Feed phases with very high best scores: the dynamic threshold must
	// rise but stay within MaxBadScore.
	for i := 0; i < 50; i++ {
		bo.updateAdaptiveThrottle(31)
	}
	if bo.dynBadScore > p.MaxBadScore {
		t.Errorf("dynBadScore %d exceeds max %d", bo.dynBadScore, p.MaxBadScore)
	}
	if bo.dynBadScore < 1 {
		t.Errorf("dynBadScore %d did not rise under consistently high scores", bo.dynBadScore)
	}
	// Consistently low scores must drive it back down to the minimum.
	for i := 0; i < 50; i++ {
		bo.updateAdaptiveThrottle(0)
	}
	if bo.dynBadScore != p.MinBadScore {
		t.Errorf("dynBadScore %d, want min %d after low scores", bo.dynBadScore, p.MinBadScore)
	}
}

func TestAdaptiveThrottleKeepsMarginalPrefetchOn(t *testing.T) {
	// A marginal pattern (best scores hovering around 2): with the fixed
	// BADSCORE=1 this is borderline; adaptive throttling with MinBadScore=0
	// should keep prefetch on more often than a fixed BADSCORE=5.
	run := func(p Params) uint64 {
		bo := New(mem.Page4M, p)
		seed := uint64(7)
		x := mem.LineAddr(0)
		for i := 0; i < 200000; i++ {
			seed = mem.Mix64(seed)
			// 15% regular stream, 85% noise: scores stay low but non-zero.
			if seed%100 < 15 {
				x++
			} else {
				x = mem.LineAddr(seed % (1 << 38))
			}
			for _, tgt := range bo.OnAccess(prefetch.AccessInfo{Line: x}) {
				bo.OnFill(tgt, true)
			}
			if !bo.Enabled() {
				bo.OnFill(x, false)
			}
		}
		return bo.Stats().PhasesOff
	}
	fixed := DefaultParams()
	fixed.BadScore = 5
	adaptive := boSpec(t, prefetch.Values{"adaptive": "true"}).params
	if offAdaptive, offFixed := run(adaptive), run(fixed); offAdaptive > offFixed {
		t.Errorf("adaptive throttling turned prefetch off more often (%d) than fixed BADSCORE=5 (%d)",
			offAdaptive, offFixed)
	}
}
