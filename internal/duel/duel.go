// Package duel implements set-dueling adaptive prefetcher selection: a meta
// L2 prefetcher that runs two registered candidate specs side by side and
// lets the access stream itself decide which one drives the cache.
//
// The mechanism is the classic set-dueling monitor (Qureshi's DIP applied to
// prefetching, the direction Pythia's selection results point to): a fixed
// hash of a line's set index dedicates a small fraction of the L2's sets to
// candidate A and an equally small fraction to candidate B, each running
// "for real" in its sample sets — issuing prefetches, observing fills. The
// remaining follower sets run whichever candidate currently holds the
// winner's seat. Per evaluation window each candidate is scored on the
// useful-prefetch count of what its sample sets issue: a target issued from a
// candidate's sample sets that is filled (the existing OnFill hook promotes
// the issue to a mark) and later demanded by an eligible access scores one
// point for the issuer — attribution follows who issued the prefetch, not
// which set the target happens to land in. At the window boundary the
// challenger takes the seat only with a score lead above the hysteresis
// margin, so a noisy tie cannot thrash the followers.
//
// Because sample-set ownership is a pure function of the line address, the
// whole mechanism is deterministic.
package duel

import (
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Partition owners, as computed by ownerOf.
const (
	ownerA        = 0
	ownerB        = 1
	ownerFollower = 2
)

// Params are the set-dueling tunables. The candidates themselves are built
// by the registry from the a=/b= sub-specs and handed to New.
type Params struct {
	Period int // eligible accesses per evaluation window
	Margin int // score lead the challenger needs to take the seat
	Sets   int // modeled L2 set count the sampling hash partitions
	Sample int // 2 of every Sample sets are dedicated, one per candidate
	Recent int // per-candidate pending-issue / fill-mark table entries (rounded up to a power of 2)
}

// DefaultParams dedicates 64 of the paper's 1024 L2 sets (Table 1: 512KB,
// 8-way, 64B lines) to each candidate and re-evaluates every 2048 eligible
// accesses.
func DefaultParams() Params {
	return Params{
		Period: 2048,
		Margin: 4,
		Sets:   1024,
		Sample: 16,
		Recent: 256,
	}
}

// Stats counts the duel's decisions for experiments and tests.
type Stats struct {
	Windows  uint64 // completed evaluation windows
	Switches uint64 // seat changes
	AScore   uint64 // lifetime useful-fill points for candidate A
	BScore   uint64 // lifetime useful-fill points for candidate B
}

// Prefetcher is the set-dueling meta-prefetcher. It implements
// prefetch.L2Prefetcher and prefetch.MetaL2.
type Prefetcher struct {
	params Params
	name   string
	a, b   prefetch.L2Prefetcher
	tag    bool // either candidate wants the pre-issue tag check

	winner int // ownerA or ownerB: who drives the follower sets
	count  int // eligible accesses in the current window
	aScore int
	bScore int
	// Scoring attributes prefetches to their issuer, not to the set the
	// target lands in (a sample set's prefetch usually fills a *different*
	// set — crediting the landing set would split every candidate's work
	// across both scores and the duel could never separate them). aPend/
	// bPend record targets issued from each candidate's sample sets;
	// OnFill promotes a pending target to aMarks/bMarks; a later eligible
	// access consumes the mark for a point. All four are direct-mapped
	// (+1 so the zero value means empty) and cleared every window so
	// scores stay window-local.
	aPend  []mem.LineAddr
	bPend  []mem.LineAddr
	aMarks []mem.LineAddr
	bMarks []mem.LineAddr
	mask   uint64

	stats Stats
}

var _ prefetch.L2Prefetcher = (*Prefetcher)(nil)
var _ prefetch.PreIssueTagChecker = (*Prefetcher)(nil)
var _ prefetch.MetaL2 = (*Prefetcher)(nil)

// New returns a set-dueling prefetcher over two constructed candidates.
// Candidate A starts in the winner's seat. Neither candidate may be a
// meta-prefetcher itself; the registry's build path reports that as a spec
// error, so New treats invalid Params as programming errors and panics.
func New(p Params, a, b prefetch.L2Prefetcher) *Prefetcher {
	if a == nil || b == nil {
		panic("duel: nil candidate")
	}
	if p.Period < 1 || p.Margin < 0 {
		panic("duel: Period must be >= 1 and Margin >= 0")
	}
	if p.Sample < 2 || p.Sets < p.Sample {
		panic("duel: need Sample >= 2 and Sets >= Sample")
	}
	if p.Recent < 1 {
		panic("duel: Recent must be >= 1")
	}
	size := 1
	for size < p.Recent {
		size <<= 1
	}
	pf := &Prefetcher{
		params: p,
		name:   "duel[" + a.Name() + "|" + b.Name() + "]",
		a:      a,
		b:      b,
		aPend:  make([]mem.LineAddr, size),
		bPend:  make([]mem.LineAddr, size),
		aMarks: make([]mem.LineAddr, size),
		bMarks: make([]mem.LineAddr, size),
		mask:   uint64(size - 1),
	}
	if c, ok := a.(prefetch.PreIssueTagChecker); ok && c.PreIssueTagCheck() {
		pf.tag = true
	}
	if c, ok := b.(prefetch.PreIssueTagChecker); ok && c.PreIssueTagCheck() {
		pf.tag = true
	}
	return pf
}

// Name implements prefetch.L2Prefetcher.
func (p *Prefetcher) Name() string { return p.name }

// MetaL2 implements prefetch.MetaL2.
func (p *Prefetcher) MetaL2() {}

// PreIssueTagCheck implements prefetch.PreIssueTagChecker: opt in when
// either candidate does. The check is per-hierarchy, not per-set, so the
// conservative union is the only consistent answer.
func (p *Prefetcher) PreIssueTagCheck() bool { return p.tag }

// Stats returns a copy of the statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// Winner reports which candidate drives the follower sets: 0 for A, 1 for B.
func (p *Prefetcher) Winner() int { return p.winner }

// ownerOf maps a line to its partition by hashing the line's set index:
// bucket 0 of every Sample buckets belongs to candidate A, bucket 1 to
// candidate B, the rest follow the winner. Fibonacci hashing spreads the
// low set-index bits, so strided streams (which alias set indices) still
// land in every partition.
func (p *Prefetcher) ownerOf(line mem.LineAddr) int {
	set := uint64(line) % uint64(p.params.Sets)
	bucket := (set * 0x9E3779B97F4A7C15 >> 32) % uint64(p.params.Sample)
	if bucket >= 2 {
		return ownerFollower
	}
	return int(bucket)
}

// drive returns the candidate that acts for a partition: sample sets are
// owned outright, follower sets go to the current winner.
func (p *Prefetcher) drive(owner int) prefetch.L2Prefetcher {
	switch {
	case owner == ownerA:
		return p.a
	case owner == ownerB:
		return p.b
	case p.winner == ownerA:
		return p.a
	default:
		return p.b
	}
}

// OnAccess implements prefetch.L2Prefetcher: consume fill marks (a useful
// prefetch scores exactly once, for its issuer, wherever the demand lands),
// advance the window, delegate the access to the partition's candidate and
// record what a sample-set candidate issued as pending.
//
//bovet:hotpath
func (p *Prefetcher) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	owner := p.ownerOf(a.Line)
	if a.Eligible() {
		if takeMark(p.aMarks, p.mask, a.Line) {
			p.aScore++
		}
		if takeMark(p.bMarks, p.mask, a.Line) {
			p.bScore++
		}
		p.count++
		if p.count >= p.params.Period {
			p.endWindow()
		}
	}
	targets := p.drive(owner).OnAccess(a)
	switch owner {
	case ownerA:
		for _, t := range targets {
			p.aPend[uint64(t)&p.mask] = t + 1
		}
	case ownerB:
		for _, t := range targets {
			p.bPend[uint64(t)&p.mask] = t + 1
		}
	}
	return targets
}

// OnFill implements prefetch.L2Prefetcher: promote a prefetch fill that a
// sample set issued from pending to scorable mark, and deliver the fill to
// the partition's candidate. A follower-set fill issued just before a seat
// change is delivered to the new winner — attribution in follower sets
// tracks the seat, which is deterministic and only perturbs the candidates'
// learning, never the scores (those come from sample-set issues alone).
//
//bovet:hotpath
func (p *Prefetcher) OnFill(line mem.LineAddr, wasPrefetch bool) {
	if wasPrefetch {
		if takeMark(p.aPend, p.mask, line) {
			p.aMarks[uint64(line)&p.mask] = line + 1
		}
		if takeMark(p.bPend, p.mask, line) {
			p.bMarks[uint64(line)&p.mask] = line + 1
		}
	}
	p.drive(p.ownerOf(line)).OnFill(line, wasPrefetch)
}

// endWindow settles the window: the challenger takes the seat only with a
// score lead above Margin, then scores and mark tables reset.
func (p *Prefetcher) endWindow() {
	p.stats.Windows++
	p.stats.AScore += uint64(p.aScore)
	p.stats.BScore += uint64(p.bScore)
	switch {
	case p.winner == ownerA && p.bScore > p.aScore+p.params.Margin:
		p.winner = ownerB
		p.stats.Switches++
	case p.winner == ownerB && p.aScore > p.bScore+p.params.Margin:
		p.winner = ownerA
		p.stats.Switches++
	}
	p.aScore, p.bScore = 0, 0
	for i := range p.aPend {
		p.aPend[i] = 0
	}
	for i := range p.bPend {
		p.bPend[i] = 0
	}
	for i := range p.aMarks {
		p.aMarks[i] = 0
	}
	for i := range p.bMarks {
		p.bMarks[i] = 0
	}
	p.count = 0
}

// takeMark probes a mark table and consumes the mark on a hit.
func takeMark(t []mem.LineAddr, mask uint64, line mem.LineAddr) bool {
	i := uint64(line) & mask
	if t[i] == line+1 {
		t[i] = 0
		return true
	}
	return false
}
