// Package multi implements a multi-offset L2 prefetcher: every eligible
// access X prefetches X+d for a configurable *set* of offsets at once,
// covering multi-strided access patterns (several interleaved streams with
// different strides) that a single-offset prefetcher like BO must choose
// between. To keep the extra traffic honest, each offset is continuously
// audited: during an evaluation window, offset d scores a point whenever
// the current access X would have been covered by a d-prefetch (X-d was
// recently accessed), and offsets that score below the threshold are
// disabled for the next window.
//
// The design is deliberately simpler than BO — no timeliness measurement,
// no phase machinery — so it doubles as the registry's proof of
// extensibility: it was added entirely from this package plus a one-line
// blank import, without touching the engine or the scheduler.
package multi

import (
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Params are the multi-offset prefetcher tunables.
type Params struct {
	Offsets  []int // the prefetch offset set (non-zero; negatives allowed)
	Period   int   // eligible accesses per evaluation window
	MinScore int   // window hits needed to keep an offset enabled
	MaxIssue int   // cap on prefetch lines per access
	Recent   int   // recent-access table entries (rounded up to a power of 2)
}

// DefaultParams covers power-of-two strides up to 32 with a conservative
// per-access issue cap. The offset set and score bar come from the bakeoff
// committed in DESIGN.md §11.4 (run after the cross-page audit fix): the
// denser set with a low bar clearly beats the original {1,2,8,32}/24 —
// minscore 24 was mostly compensating for scores the cross-page leak
// inflated, and over-gates once the audit only credits issuable covers.
func DefaultParams() Params {
	return Params{
		Offsets:  []int{1, 2, 4, 8, 16, 32},
		Period:   256,
		MinScore: 6,
		MaxIssue: 4,
		Recent:   128,
	}
}

// Stats counts the prefetcher's decisions for experiments and tests.
type Stats struct {
	Issued  uint64 // prefetch lines returned to the hierarchy
	Windows uint64 // completed evaluation windows
}

// Prefetcher is the multi-offset prefetcher. It implements
// prefetch.L2Prefetcher.
type Prefetcher struct {
	params Params
	page   mem.PageSize

	recent  []mem.LineAddr // direct-mapped recent-access table (+1 so 0 means empty)
	mask    uint64
	scores  []int
	enabled []bool
	count   int // eligible accesses in the current window

	buf []mem.LineAddr // OnAccess scratch, reused across calls

	stats Stats
}

var _ prefetch.L2Prefetcher = (*Prefetcher)(nil)
var _ prefetch.PreIssueTagChecker = (*Prefetcher)(nil)

// New returns a multi-offset prefetcher for the given page size. All
// offsets start enabled; the first window's scores take it from there.
func New(page mem.PageSize, p Params) *Prefetcher {
	if len(p.Offsets) == 0 {
		panic("multi: empty offset list")
	}
	for _, d := range p.Offsets {
		if d == 0 {
			panic("multi: offset 0 is meaningless")
		}
	}
	size := 1
	for size < p.Recent {
		size <<= 1
	}
	pf := &Prefetcher{
		params:  p,
		page:    page,
		recent:  make([]mem.LineAddr, size),
		mask:    uint64(size - 1),
		scores:  make([]int, len(p.Offsets)),
		enabled: make([]bool, len(p.Offsets)),
	}
	for i := range pf.enabled {
		pf.enabled[i] = true
	}
	return pf
}

// Name implements prefetch.L2Prefetcher.
func (p *Prefetcher) Name() string { return "multi" }

// PreIssueTagCheck implements prefetch.PreIssueTagChecker: like SBP, a
// degree-N prefetcher should not spend fill-queue slots on lines the L2
// already holds.
func (p *Prefetcher) PreIssueTagCheck() bool { return true }

// Stats returns a copy of the statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// EnabledOffsets returns the offsets currently issuing prefetches, in
// configuration order. It allocates; hot-path callers polling a live
// prefetcher use AppendEnabledOffsets instead.
func (p *Prefetcher) EnabledOffsets() []int {
	return p.AppendEnabledOffsets(nil)
}

// AppendEnabledOffsets appends the offsets currently issuing prefetches to
// dst, in configuration order, and returns the extended slice. With a caller
// buffer of cap >= len(Offsets) it does not allocate.
func (p *Prefetcher) AppendEnabledOffsets(dst []int) []int {
	for i, on := range p.enabled {
		if on {
			dst = append(dst, p.params.Offsets[i])
		}
	}
	return dst
}

// OnAccess implements prefetch.L2Prefetcher: score every offset against the
// recent-access table, record the access, and issue for the enabled set.
//
//bovet:hotpath
func (p *Prefetcher) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if !a.Eligible() {
		return nil
	}
	for i, d := range p.params.Offsets {
		prev := int64(a.Line) - int64(d)
		// Score only what the issue path below would actually prefetch: a
		// cross-page X-d may well be a recent access, but a d-prefetch from
		// it could never have issued, so crediting it would keep d enabled
		// on covers it never provides.
		if prev >= 0 && p.page.SamePage(a.Line, mem.LineAddr(prev)) && p.recentHit(mem.LineAddr(prev)) {
			p.scores[i]++
		}
	}
	p.recentInsert(a.Line)
	p.count++
	if p.count >= p.params.Period {
		p.endWindow()
	}

	out := p.buf[:0]
	for i, d := range p.params.Offsets {
		if !p.enabled[i] {
			continue
		}
		t := int64(a.Line) + int64(d)
		if t < 0 {
			continue
		}
		target := mem.LineAddr(t)
		if !p.page.SamePage(a.Line, target) {
			continue
		}
		out = append(out, target)
		if len(out) >= p.params.MaxIssue {
			break
		}
	}
	p.stats.Issued += uint64(len(out))
	p.buf = out
	return out
}

// endWindow converts the window's scores into the next enabled set.
func (p *Prefetcher) endWindow() {
	for i, s := range p.scores {
		p.enabled[i] = s >= p.params.MinScore
		p.scores[i] = 0
	}
	p.count = 0
	p.stats.Windows++
}

// OnFill implements prefetch.L2Prefetcher; the audit works on the access
// stream alone.
//
//bovet:hotpath
func (p *Prefetcher) OnFill(mem.LineAddr, bool) {}

// recentHit checks the direct-mapped recent-access table for line.
func (p *Prefetcher) recentHit(line mem.LineAddr) bool {
	return p.recent[uint64(line)&p.mask] == line+1
}

// recentInsert records line (stored +1 so the zero value means empty).
func (p *Prefetcher) recentInsert(line mem.LineAddr) {
	p.recent[uint64(line)&p.mask] = line + 1
}
