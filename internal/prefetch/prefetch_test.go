package prefetch

import (
	"testing"

	"bopsim/internal/mem"
)

func TestOffsetListMatchesPaper(t *testing.T) {
	want := []int{
		1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32,
		36, 40, 45, 48, 50, 54, 60, 64, 72, 75, 80, 81, 90, 96, 100, 108,
		120, 125, 128, 135, 144, 150, 160, 162, 180, 192, 200, 216, 225,
		240, 243, 250, 256,
	}
	got := DefaultOffsetList()
	if len(got) != 52 {
		t.Fatalf("offset list has %d entries, want 52", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("offset[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestOffsetListLCMClosure(t *testing.T) {
	// Section 4.2: if two offsets are in the list, so is their least common
	// multiple, provided it is not too large.
	list := DefaultOffsetList()
	in := make(map[int]bool, len(list))
	for _, d := range list {
		in[d] = true
	}
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	for _, a := range list {
		for _, b := range list {
			l := a / gcd(a, b) * b
			if l <= DefaultMaxOffset && !in[l] {
				t.Errorf("lcm(%d,%d)=%d missing from list", a, b, l)
			}
		}
	}
}

func TestOffsetListPrimeFactors(t *testing.T) {
	for _, d := range DefaultOffsetList() {
		if f := largestPrimeFactor(d); f > 5 {
			t.Errorf("offset %d has prime factor %d > 5", d, f)
		}
	}
	// And every excluded offset has a prime factor > 5.
	in := make(map[int]bool)
	for _, d := range DefaultOffsetList() {
		in[d] = true
	}
	for d := 1; d <= DefaultMaxOffset; d++ {
		if !in[d] && largestPrimeFactor(d) <= 5 {
			t.Errorf("offset %d wrongly excluded", d)
		}
	}
}

func TestNextLinePrefetchesOnMiss(t *testing.T) {
	p := NewNextLine(mem.Page4K)
	got := p.OnAccess(AccessInfo{Line: 10, Hit: false})
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("OnAccess(miss 10) = %v, want [11]", got)
	}
}

func TestNextLinePrefetchesOnPrefetchedHit(t *testing.T) {
	p := NewNextLine(mem.Page4K)
	got := p.OnAccess(AccessInfo{Line: 10, Hit: true, PrefetchedHit: true})
	if len(got) != 1 || got[0] != 11 {
		t.Errorf("OnAccess(prefetched hit) = %v, want [11]", got)
	}
}

func TestNextLineSilentOnPlainHit(t *testing.T) {
	p := NewNextLine(mem.Page4K)
	if got := p.OnAccess(AccessInfo{Line: 10, Hit: true}); got != nil {
		t.Errorf("OnAccess(plain hit) = %v, want nil", got)
	}
}

func TestFixedOffsetRespectsPageBoundary(t *testing.T) {
	p := NewFixedOffset(mem.Page4K, 8)
	// Line 60 of a 64-line page: 60+8 crosses the boundary.
	if got := p.OnAccess(AccessInfo{Line: 60}); got != nil {
		t.Errorf("cross-page prefetch issued: %v", got)
	}
	// Same line with 4MB pages is fine.
	p2 := NewFixedOffset(mem.Page4M, 8)
	if got := p2.OnAccess(AccessInfo{Line: 60}); len(got) != 1 || got[0] != 68 {
		t.Errorf("4MB page prefetch = %v, want [68]", got)
	}
}

func TestFixedOffsetNames(t *testing.T) {
	if NewNextLine(mem.Page4K).Name() != "next-line" {
		t.Error("offset-1 should be named next-line")
	}
	if NewFixedOffset(mem.Page4K, 5).Name() != "offset-5" {
		t.Error("wrong fixed-offset name")
	}
	if NewFixedOffset(mem.Page4K, 5).Offset() != 5 {
		t.Error("Offset() mismatch")
	}
}

func TestFixedOffsetRejectsBadOffset(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("offset 0 did not panic")
		}
	}()
	NewFixedOffset(mem.Page4K, 0)
}

func TestNonePrefetcher(t *testing.T) {
	var p None
	if p.OnAccess(AccessInfo{Line: 1}) != nil {
		t.Error("None prefetched")
	}
	p.OnFill(1, true) // must not panic
	if p.Name() != "none" {
		t.Error("bad name")
	}
}

func TestEligible(t *testing.T) {
	cases := []struct {
		hit, pfHit, want bool
	}{
		{false, false, true}, // miss
		{true, false, false}, // plain hit
		{true, true, true},   // prefetched hit
	}
	for _, c := range cases {
		a := AccessInfo{Hit: c.hit, PrefetchedHit: c.pfHit}
		if a.Eligible() != c.want {
			t.Errorf("Eligible(hit=%v pfHit=%v) = %v", c.hit, c.pfHit, !c.want)
		}
	}
}
