package multi

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

func eligible(line mem.LineAddr) prefetch.AccessInfo {
	return prefetch.AccessInfo{Line: line} // a miss: Hit=false
}

func TestIssuesAllEnabledOffsets(t *testing.T) {
	p := New(mem.Page4M, Params{Offsets: []int{1, 4, 16}, Period: 1 << 20, MinScore: 1, MaxIssue: 8, Recent: 64})
	got := p.OnAccess(eligible(1000))
	want := []mem.LineAddr{1001, 1004, 1016}
	if len(got) != len(want) {
		t.Fatalf("issued %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("target[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRespectsPageBoundaryAndIssueCap(t *testing.T) {
	p := New(mem.Page4K, Params{Offsets: []int{1, 2, 4, 8, 16, 32}, Period: 1 << 20, MinScore: 1, MaxIssue: 3, Recent: 64})
	// 64 lines per 4KB page; from line 62 only +1 stays in the page.
	got := p.OnAccess(eligible(62))
	if len(got) != 1 || got[0] != 63 {
		t.Errorf("near page end issued %v, want [63]", got)
	}
	// In the page interior the cap limits the fan-out.
	got = p.OnAccess(eligible(4096))
	if len(got) != 3 {
		t.Errorf("cap: issued %d targets, want 3", len(got))
	}
}

func TestIneligibleAccessesIgnored(t *testing.T) {
	p := New(mem.Page4K, DefaultParams())
	if got := p.OnAccess(prefetch.AccessInfo{Line: 100, Hit: true}); got != nil {
		t.Errorf("plain hit triggered prefetches: %v", got)
	}
	if got := p.OnAccess(prefetch.AccessInfo{Line: 100, Hit: true, PrefetchedHit: true}); got == nil {
		t.Error("prefetched hit did not trigger")
	}
}

func TestWindowDisablesUselessOffsets(t *testing.T) {
	// A pure stride-4 stream: offset 4 is covered on every access, while 1
	// and 30 (not multiples of the stride) never land on an accessed line.
	// After one window only offset 4 survives.
	p := New(mem.Page4M, Params{Offsets: []int{1, 4, 30}, Period: 64, MinScore: 32, MaxIssue: 8, Recent: 128})
	line := mem.LineAddr(1 << 20)
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 4
	}
	if p.Stats().Windows != 1 {
		t.Fatalf("windows = %d, want 1", p.Stats().Windows)
	}
	en := p.EnabledOffsets()
	if len(en) != 1 || en[0] != 4 {
		t.Errorf("enabled offsets after a stride-4 window: %v, want [4]", en)
	}
	// A later access issues only the surviving offset.
	got := p.OnAccess(eligible(line))
	if len(got) != 1 || got[0] != line+4 {
		t.Errorf("post-window issue = %v, want [%d]", got, line+4)
	}
}

func TestOffsetsReenableWhenPatternReturns(t *testing.T) {
	p := New(mem.Page4M, Params{Offsets: []int{1, 4}, Period: 64, MinScore: 32, MaxIssue: 8, Recent: 128})
	// Window 1: random-ish far apart accesses disable everything.
	line := mem.LineAddr(1 << 24)
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 9973
	}
	if en := p.EnabledOffsets(); len(en) != 0 {
		t.Fatalf("enabled after noise window: %v, want none", en)
	}
	// Window 2: a stride-4 stream re-earns offset 4 (scoring continues
	// while disabled).
	line = 1 << 25
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 4
	}
	en := p.EnabledOffsets()
	if len(en) != 1 || en[0] != 4 {
		t.Errorf("enabled after stride-4 window: %v, want [4]", en)
	}
}

func TestRegisteredSpec(t *testing.T) {
	p, err := prefetch.NewL2(prefetch.MustSpec("multi:offsets=2+6,period=32,minscore=4"), mem.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	mp, ok := p.(*Prefetcher)
	if !ok {
		t.Fatalf("built %T", p)
	}
	if en := mp.EnabledOffsets(); len(en) != 2 || en[0] != 2 || en[1] != 6 {
		t.Errorf("configured offsets = %v", en)
	}
	if !mp.PreIssueTagCheck() {
		t.Error("multi should request the pre-issue tag check")
	}
	if _, err := prefetch.NewL2(prefetch.MustSpec("multi:offsets=0"), mem.Page4K); err == nil {
		t.Error("offset 0 accepted")
	}
}

func TestScoringDropsCrossPageCovers(t *testing.T) {
	// Alternate between the last line of one 4KB page and the first line of
	// the next: the numeric distance is 1, but a +1 prefetch from line 63
	// could never issue (page boundary), so offset 1 must not score — the
	// audit may only credit covers the issue path could have provided.
	p := New(mem.Page4K, Params{Offsets: []int{1}, Period: 64, MinScore: 1, MaxIssue: 8, Recent: 128})
	for i := 0; i < 32; i++ {
		p.OnAccess(eligible(63))
		p.OnAccess(eligible(64))
	}
	if en := p.EnabledOffsets(); len(en) != 0 {
		t.Errorf("cross-page +1 pattern kept offset 1 enabled (scores credited covers the page boundary drops)")
	}
	// The same distance inside one page does score.
	p2 := New(mem.Page4K, Params{Offsets: []int{1}, Period: 64, MinScore: 1, MaxIssue: 8, Recent: 128})
	for i := 0; i < 32; i++ {
		p2.OnAccess(eligible(10))
		p2.OnAccess(eligible(11))
	}
	if en := p2.EnabledOffsets(); len(en) != 1 {
		t.Errorf("in-page +1 pattern did not keep offset 1 enabled")
	}
}

func TestAppendEnabledOffsetsDoesNotAllocate(t *testing.T) {
	p := New(mem.Page4M, DefaultParams())
	buf := make([]int, 0, len(DefaultParams().Offsets))
	if avg := testing.AllocsPerRun(1000, func() {
		buf = p.AppendEnabledOffsets(buf[:0])
	}); avg != 0 {
		t.Errorf("AppendEnabledOffsets into a sized buffer allocates %.3f objects/op, want 0", avg)
	}
	if len(buf) != len(DefaultParams().Offsets) {
		t.Errorf("AppendEnabledOffsets returned %v", buf)
	}
}

func TestRetuneMinScore(t *testing.T) {
	p := New(mem.Page4M, Params{Offsets: []int{4}, Period: 64, MinScore: 1, MaxIssue: 8, Recent: 128})
	// A stride-4 stream scores offset 4 on every access after the first.
	line := mem.LineAddr(1 << 20)
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 4
	}
	if en := p.EnabledOffsets(); len(en) != 1 {
		t.Fatalf("stride-4 window with minscore 1 disabled offset 4: %v", en)
	}
	// Raising the bar above the achievable score disables it at the next
	// window boundary; the current window is judged against the new value.
	if err := p.Retune("minscore", "1000"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 4
	}
	if en := p.EnabledOffsets(); len(en) != 0 {
		t.Errorf("minscore 1000 kept offset 4 enabled: %v", en)
	}
	for _, bad := range [][2]string{{"minscore", "x"}, {"minscore", "-1"}, {"nope", "1"}} {
		if err := p.Retune(bad[0], bad[1]); err == nil {
			t.Errorf("Retune(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

func TestRetuneOffsetsRestartsAudit(t *testing.T) {
	p := New(mem.Page4M, Params{Offsets: []int{1, 4}, Period: 64, MinScore: 32, MaxIssue: 8, Recent: 128})
	// Disable everything with a noise window.
	line := mem.LineAddr(1 << 24)
	for i := 0; i < 64; i++ {
		p.OnAccess(eligible(line))
		line += 9973
	}
	if en := p.EnabledOffsets(); len(en) != 0 {
		t.Fatalf("enabled after noise window: %v", en)
	}
	// Replacing the offset set restarts the audit: the new set starts fully
	// enabled with a fresh window, like a freshly constructed prefetcher.
	if err := p.Retune("offsets", "2+16"); err != nil {
		t.Fatal(err)
	}
	en := p.EnabledOffsets()
	if len(en) != 2 || en[0] != 2 || en[1] != 16 {
		t.Fatalf("offsets after retune: %v, want [2 16]", en)
	}
	got := p.OnAccess(eligible(1 << 20))
	if len(got) != 2 || got[0] != (1<<20)+2 || got[1] != (1<<20)+16 {
		t.Errorf("post-retune issue = %v", got)
	}
	for _, bad := range []string{"", "0", "1+0", "1+x"} {
		if err := p.Retune("offsets", bad); err == nil {
			t.Errorf("Retune(offsets, %q) accepted", bad)
		}
	}
}
