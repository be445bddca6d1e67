package core

import (
	"testing"

	"bopsim/internal/mem"
)

func TestRetuneDegree(t *testing.T) {
	p2 := DefaultParams()
	p2.Degree = 2
	p := New(mem.Page4K, p2)
	// Learn a second-best offset, then drop to degree 1: the second-best
	// slot must clear so it can never issue again.
	driveStream(p, 1<<10, 2, 4000, 8)
	if err := p.Retune("degree", "1"); err != nil {
		t.Fatal(err)
	}
	if p.params.Degree != 1 || p.d2 != 0 {
		t.Errorf("after degree=1 retune: Degree=%d d2=%d, want 1/0", p.params.Degree, p.d2)
	}
	if err := p.Retune("degree", "2"); err != nil {
		t.Fatal(err)
	}
	if p.params.Degree != 2 {
		t.Errorf("after degree=2 retune: Degree=%d", p.params.Degree)
	}
	for _, bad := range []string{"0", "3", "x", ""} {
		if err := p.Retune("degree", bad); err == nil {
			t.Errorf("Retune(degree, %q) accepted", bad)
		}
	}
}

func TestRetuneBadScore(t *testing.T) {
	p := New(mem.Page4K, DefaultParams())
	if err := p.Retune("badscore", "4"); err != nil {
		t.Fatal(err)
	}
	if p.params.BadScore != 4 || p.dynBadScore != 4 {
		t.Errorf("after badscore retune: BadScore=%d dynBadScore=%d, want 4/4", p.params.BadScore, p.dynBadScore)
	}
	if err := p.Retune("badscore", "x"); err == nil {
		t.Error("Retune(badscore, x) accepted")
	}
}

func TestRetuneOffsetsRestartsLearning(t *testing.T) {
	p := New(mem.Page4K, DefaultParams())
	driveStream(p, 1<<10, 4, 1000, 8)
	before := p.Offset()
	if err := p.Retune("offsets", "1+2+4+8"); err != nil {
		t.Fatal(err)
	}
	if len(p.params.Offsets) != 4 || len(p.scores) != 4 {
		t.Fatalf("after offsets retune: %d offsets, %d scores", len(p.params.Offsets), len(p.scores))
	}
	if p.offIdx != 0 || p.round != 0 || p.bestIdx != 0 || p.bestScore != 0 || p.d2 != 0 {
		t.Error("offsets retune did not restart the learning phase")
	}
	// The current prefetch offset keeps issuing until the fresh phase ends:
	// D is a value, not an index into the replaced list.
	if p.Offset() != before {
		t.Errorf("offsets retune changed the live offset %d -> %d", before, p.Offset())
	}
	for _, bad := range []string{"", "0", "1+0", "1+x"} {
		if err := p.Retune("offsets", bad); err == nil {
			t.Errorf("Retune(offsets, %q) accepted", bad)
		}
	}
	if err := p.Retune("nope", "1"); err == nil {
		t.Error("unknown retune key accepted")
	}
}
