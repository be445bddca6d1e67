// Package core implements the paper's primary contribution: the Best-Offset
// (BO) hardware prefetcher (Michaud, HPCA 2016, section 4).
//
// BO is an offset prefetcher: when the core requests line X at the L2 (miss
// or prefetched hit), it prefetches line X+D in the same page. What makes
// it "best-offset" is the learning mechanism that picks D: it scores a list
// of candidate offsets by checking, for each eligible access X, whether a
// prefetch issued with the candidate offset would have been *timely* — that
// is, whether X-d is in the recent-requests (RR) table, which records base
// addresses of prefetches that have already completed. Learning proceeds in
// phases of up to ROUNDMAX rounds; the offset with the best score becomes
// the new D, and a best score at or below BADSCORE turns prefetching off
// (learning continues with RR insertions of demand fills so prefetch can
// turn back on when behaviour changes).
package core

import (
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Params are the tunables of Table 2.
type Params struct {
	RREntries int   // recent-requests table entries (default 256)
	RRTagBits uint  // partial tag width (default 12)
	ScoreMax  int   // learning phase ends when a score reaches this (31)
	RoundMax  int   // maximum rounds per learning phase (100)
	BadScore  int   // best score <= BadScore turns prefetch off (1)
	Offsets   []int // candidate offset list (52 offsets, section 4.2)

	// InsertRRAtIssue is an ablation: write the base address into the RR
	// table when the prefetch is *issued* instead of when it completes.
	// This discards the timeliness information — the RR table degenerates
	// into a sandbox-like recency filter (see DESIGN.md, ablations).
	InsertRRAtIssue bool

	// TriggerOnAllAccesses is an ablation: run the prefetcher on every L2
	// access instead of only misses and prefetched hits (i.e., ignore the
	// prefetch-bit gating of section 5.6).
	TriggerOnAllAccesses bool

	// Degree selects how many offsets prefetch per access: 1 (the paper's
	// evaluated design, the default) or 2 (best + second-best offsets, the
	// extension discussed in section 4.3). Zero means 1.
	Degree int

	// AdaptiveThrottle enables the dynamic BADSCORE heuristic (the paper's
	// future-work item, see extensions.go); MinBadScore/MaxBadScore bound
	// the floating threshold.
	AdaptiveThrottle bool
	MinBadScore      int
	MaxBadScore      int
}

// DefaultParams returns the configuration of Table 2.
func DefaultParams() Params {
	return Params{
		RREntries: 256,
		RRTagBits: 12,
		ScoreMax:  31,
		RoundMax:  100,
		BadScore:  1,
		Offsets:   prefetch.DefaultOffsetList(),
	}
}

// Stats exposes the prefetcher's learning behaviour for the experiments.
// It is serialized inside engine.Result (the result cache and the distrib
// result payload).
type Stats struct {
	Phases       uint64 // completed learning phases
	PhasesOff    uint64 // phases that ended with prefetch turned off
	Issued       uint64 // prefetches returned to the cache hierarchy
	RRInsertions uint64
	ScoreMaxEnds uint64 // phases ended by a score reaching ScoreMax
}

// Prefetcher is the Best-Offset L2 prefetcher. It implements
// prefetch.L2Prefetcher.
type Prefetcher struct {
	params Params
	page   mem.PageSize
	rr     *RRTable

	scores    []int
	offIdx    int // next offset (index into params.Offsets) to test
	round     int
	bestIdx   int // incrementally maintained best offset index
	bestScore int

	d  int  // current prefetch offset D
	d2 int  // second-best offset for degree-2 mode (0 = none)
	on bool // prefetch on/off (throttling, section 4.3)

	// Adaptive-throttling state (extensions.go).
	scoreEWMA   int // EWMA of phase best scores, fixed point x16
	dynBadScore int

	buf [2]mem.LineAddr // OnAccess scratch, avoids a per-access slice

	stats Stats
}

var _ prefetch.L2Prefetcher = (*Prefetcher)(nil)

// New returns a BO prefetcher for the given page size.
func New(page mem.PageSize, p Params) *Prefetcher {
	if len(p.Offsets) == 0 {
		panic("core: empty offset list")
	}
	for _, d := range p.Offsets {
		if d == 0 {
			panic("core: offset 0 is meaningless (negative offsets are allowed, section 4.2)")
		}
	}
	if p.Degree == 0 {
		p.Degree = 1
	}
	if p.Degree < 1 || p.Degree > 2 {
		panic("core: Degree must be 1 or 2")
	}
	return &Prefetcher{
		params:      p,
		page:        page,
		rr:          NewRRTable(p.RREntries, p.RRTagBits),
		scores:      make([]int, len(p.Offsets)),
		d:           1, // start as a next-line prefetcher until the first phase ends
		on:          true,
		dynBadScore: p.BadScore,
	}
}

// Name implements prefetch.L2Prefetcher.
func (p *Prefetcher) Name() string { return "BO" }

// Offset returns the current prefetch offset D.
func (p *Prefetcher) Offset() int { return p.d }

// Enabled reports whether prefetching is currently on.
func (p *Prefetcher) Enabled() bool { return p.on }

// Stats returns a copy of the learning statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// OnAccess implements prefetch.L2Prefetcher: learning step plus at most one
// prefetch (BO is a degree-one prefetcher, section 4.3).
//
//bovet:hotpath
func (p *Prefetcher) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if !a.Eligible() && !p.params.TriggerOnAllAccesses {
		return nil
	}
	p.learn(a.Line)
	if !p.on {
		return nil
	}
	targets := p.buf[:0]
	offsets := [2]int{p.d, 0}
	n := 1
	if p.params.Degree == 2 && p.d2 != 0 && p.d2 != p.d {
		offsets[1] = p.d2
		n = 2
	}
	for i := 0; i < n; i++ {
		t := int64(a.Line) + int64(offsets[i])
		if t < 0 {
			continue
		}
		target := mem.LineAddr(t)
		if !p.page.SamePage(a.Line, target) {
			continue
		}
		targets = append(targets, target)
	}
	if len(targets) == 0 {
		return nil
	}
	if p.params.InsertRRAtIssue {
		p.rr.Insert(a.Line)
		p.stats.RRInsertions++
	}
	p.stats.Issued += uint64(len(targets))
	return targets
}

// learn performs one learning step: test the next offset in the round-robin
// order against the RR table and handle phase boundaries.
func (p *Prefetcher) learn(x mem.LineAddr) {
	prev := int64(x) - int64(p.params.Offsets[p.offIdx])
	if prev >= 0 && p.rr.Hit(mem.LineAddr(prev)) {
		p.scores[p.offIdx]++
		if p.scores[p.offIdx] > p.bestScore {
			p.bestScore = p.scores[p.offIdx]
			p.bestIdx = p.offIdx
		}
	}
	p.offIdx++
	if p.offIdx < len(p.params.Offsets) {
		return
	}
	// End of a round.
	p.offIdx = 0
	p.round++
	if p.bestScore >= p.params.ScoreMax {
		p.stats.ScoreMaxEnds++
		p.endPhase()
	} else if p.round >= p.params.RoundMax {
		p.endPhase()
	}
}

// endPhase installs the best offset as the new D, applies throttling, and
// starts a fresh phase.
func (p *Prefetcher) endPhase() {
	p.stats.Phases++
	p.d = p.params.Offsets[p.bestIdx]
	p.d2 = 0
	if p.params.Degree == 2 {
		if i := p.secondBestIdx(); i >= 0 {
			p.d2 = p.params.Offsets[i]
		}
	}
	bad := p.params.BadScore
	if p.params.AdaptiveThrottle {
		p.updateAdaptiveThrottle(p.bestScore)
		bad = p.dynBadScore
	}
	p.on = p.bestScore > bad
	if !p.on {
		p.stats.PhasesOff++
	}
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.round = 0
	p.bestScore = 0
	p.bestIdx = 0
}

// OnFill implements prefetch.L2Prefetcher. When prefetch is on, every
// *prefetched* line Y filled into the L2 writes its base address Y-D into
// the RR table (if Y and Y-D share a page; otherwise the base address is
// unknown, footnote 2). When prefetch is off, every fetched line Y writes Y
// itself (D=0 insertion), so learning keeps running.
//
//bovet:hotpath
func (p *Prefetcher) OnFill(y mem.LineAddr, wasPrefetch bool) {
	if p.params.InsertRRAtIssue && p.on {
		return // ablation: insertions already happened at issue time
	}
	if p.on {
		if !wasPrefetch {
			return
		}
		base := int64(y) - int64(p.d)
		if base < 0 || !p.page.SamePage(y, mem.LineAddr(base)) {
			return
		}
		p.rr.Insert(mem.LineAddr(base))
		p.stats.RRInsertions++
		return
	}
	p.rr.Insert(y)
	p.stats.RRInsertions++
}
