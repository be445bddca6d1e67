// Package sbp implements the Sandbox prefetcher of Pugsley et al. (HPCA
// 2014) as adapted by the BO paper for a like-for-like comparison (section
// 6.3): the same 52-offset candidate list as BO, a 2048-bit Bloom filter
// "sandbox" with 3 hash functions, and an evaluation period of 256 eligible
// L2 accesses per candidate offset.
//
// During the evaluation of candidate d, every eligible access X adds a fake
// prefetch X+d to the sandbox and scores the candidate by checking the
// sandbox for X, X-D, X-2D and X-3D (one point per hit) — the lookahead
// checks are how SBP compensates for not measuring timeliness: a high score
// licenses prefetching several lines ahead with the same offset. At the end
// of a full pass over all candidates, offsets whose scores clear the
// accuracy cutoffs become the active prefetch offsets, with degree 1-3 each.
package sbp

import (
	"sort"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Params are the SBP tunables.
type Params struct {
	Offsets   []int // candidate offsets (same list as BO for comparability)
	BloomBits uint64
	BloomHash int
	Period    int // eligible accesses per candidate evaluation (256)
	MaxIssue  int // cap on prefetches issued per access
	// Cutoffs are the score thresholds, as fractions of the maximum
	// possible period score (4 checks x Period), above which an offset is
	// prefetched with degree 1, 2, 3.
	Cutoff1, Cutoff2, Cutoff3 int
}

// DefaultParams mirrors section 6.3: 52 offsets, 2048-bit Bloom filter, 3
// hashes, 256-access periods. The degree cutoffs are 25%, 50% and 75% of
// the maximum per-period score, following the original SBP's accuracy-
// cutoff scheme.
func DefaultParams() Params {
	period := 256
	max := 4 * period
	return Params{
		Offsets:   prefetch.DefaultOffsetList(),
		BloomBits: 2048,
		BloomHash: 3,
		Period:    period,
		MaxIssue:  8,
		Cutoff1:   max / 4,
		Cutoff2:   max / 2,
		Cutoff3:   3 * max / 4,
	}
}

// activeOffset is one offset selected for real prefetching.
type activeOffset struct {
	offset int
	degree int
	score  int
}

// Stats counts SBP decisions for the experiments.
type Stats struct {
	Evaluations uint64 // completed full passes over the candidate list
	Issued      uint64 // prefetch lines returned to the hierarchy
	FakeAdds    uint64
}

// Prefetcher is the Sandbox prefetcher. It implements
// prefetch.L2Prefetcher.
type Prefetcher struct {
	params Params
	page   mem.PageSize
	bloom  *Bloom

	candIdx     int   // candidate currently being evaluated
	accessCount int   // eligible accesses so far in this period
	scores      []int // score per candidate, filled during the pass

	active []activeOffset

	buf []mem.LineAddr // issue scratch, reused across OnAccess calls

	stats Stats
}

var _ prefetch.L2Prefetcher = (*Prefetcher)(nil)

// New returns an SBP prefetcher for the given page size.
func New(page mem.PageSize, p Params) *Prefetcher {
	if len(p.Offsets) == 0 {
		panic("sbp: empty offset list")
	}
	return &Prefetcher{
		params: p,
		page:   page,
		bloom:  NewBloom(p.BloomBits, p.BloomHash),
		scores: make([]int, len(p.Offsets)),
	}
}

// Name implements prefetch.L2Prefetcher.
func (p *Prefetcher) Name() string { return "SBP" }

// Stats returns a copy of the statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// ActiveOffsets returns the offsets currently used for prefetching with
// their degrees, for inspection by tests and examples.
func (p *Prefetcher) ActiveOffsets() map[int]int {
	out := make(map[int]int, len(p.active))
	for _, a := range p.active {
		out[a.offset] = a.degree
	}
	return out
}

// OnAccess implements prefetch.L2Prefetcher.
//
//bovet:hotpath
func (p *Prefetcher) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if !a.Eligible() {
		return nil
	}
	p.evaluate(a.Line)
	return p.issue(a.Line)
}

// evaluate runs the sandbox step for the candidate under evaluation.
func (p *Prefetcher) evaluate(x mem.LineAddr) {
	d := mem.LineAddr(p.params.Offsets[p.candIdx])
	// Score: check X, X-d, X-2d, X-3d against the sandbox.
	for k := mem.LineAddr(0); k <= 3; k++ {
		back := k * d
		if x >= back && p.bloom.Contains(x-back) {
			p.scores[p.candIdx]++
		}
	}
	// Fake prefetch X+d (page-bounded like a real one).
	if t := x + d; p.page.SamePage(x, t) {
		p.bloom.Add(t)
		p.stats.FakeAdds++
	}
	p.accessCount++
	if p.accessCount < p.params.Period {
		return
	}
	// Period over: move to the next candidate with a clean sandbox.
	p.accessCount = 0
	p.bloom.Reset()
	p.candIdx++
	if p.candIdx < len(p.params.Offsets) {
		return
	}
	p.candIdx = 0
	p.selectActive()
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.stats.Evaluations++
}

// selectActive converts the pass's scores into the active offset set.
func (p *Prefetcher) selectActive() {
	p.active = p.active[:0]
	for i, s := range p.scores {
		var deg int
		switch {
		case s >= p.params.Cutoff3:
			deg = 3
		case s >= p.params.Cutoff2:
			deg = 2
		case s >= p.params.Cutoff1:
			deg = 1
		default:
			continue
		}
		p.active = append(p.active, activeOffset{offset: p.params.Offsets[i], degree: deg, score: s})
	}
	// Highest-scoring offsets first so the per-access issue cap keeps the
	// best candidates.
	//bovet:allow hotalloc selectActive runs once per full candidate pass (~13k eligible accesses), off the steady-state path
	sort.Slice(p.active, func(i, j int) bool { return p.active[i].score > p.active[j].score })
}

// issue emits real prefetches for the active offsets, capped at MaxIssue
// lines per access. Redundant requests are filtered downstream by the L2
// tag check and the associative queue searches (section 6.3).
func (p *Prefetcher) issue(x mem.LineAddr) []mem.LineAddr {
	if len(p.active) == 0 {
		return nil
	}
	out := p.buf[:0]
	for _, a := range p.active {
		for k := 1; k <= a.degree; k++ {
			t := x + mem.LineAddr(a.offset*k)
			if !p.page.SamePage(x, t) {
				break
			}
			out = append(out, t)
			if len(out) >= p.params.MaxIssue {
				p.stats.Issued += uint64(len(out))
				p.buf = out
				return out
			}
		}
	}
	p.stats.Issued += uint64(len(out))
	p.buf = out
	return out
}

// OnFill implements prefetch.L2Prefetcher; SBP learns only from its
// sandbox, not from fills.
//
//bovet:hotpath
func (p *Prefetcher) OnFill(mem.LineAddr, bool) {}
