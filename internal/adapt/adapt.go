// Package adapt implements phase-adaptive prefetcher reconfiguration: a
// meta L2 prefetcher that wraps one registered spec and retunes its
// parameters live as the workload moves between phases, the runtime-guided
// reconfiguration idea from the POWER7 prefetcher study generalized over the
// prefetch.Retunable interface.
//
// The wrapper watches its base prefetcher's per-window accuracy: every
// prefetch fill is marked, every later eligible access that demands a marked
// line counts as useful, and at the window boundary the useful/filled ratio
// steers an aggressiveness ladder — a fixed, conservative-to-aggressive list
// of parameter settings. Accurate windows climb the ladder (more coverage),
// inaccurate windows descend it (less pollution), and windows with too few
// fills to judge climb too, since a starved prefetcher can only prove itself
// by issuing. Built-in ladders cover "bo" (degree/badscore) and "multi"
// (minscore); any other Retunable base can supply a single-key ladder via
// key=/levels=.
package adapt

import (
	"fmt"
	"strings"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Params are the phase-adaptation tunables. Base names the wrapped spec, which
// selects the built-in ladder; the registry's build path fills it from the
// base= sub-spec.
type Params struct {
	Base     prefetch.Spec
	Window   int // eligible accesses per monitoring window
	Lo       int // accuracy percent below which the ladder descends
	Hi       int // accuracy percent above which the ladder climbs
	MinFills int // fewer prefetch fills than this reads as starvation, not accuracy
	Recent   int // prefetch-fill mark table entries (rounded up to a power of 2)

	// Key/Levels define a custom single-parameter ladder for bases without
	// a built-in one: Levels lists Key's values from conservative to
	// aggressive. Empty Key selects the built-in ladder for Base's name.
	Key    string
	Levels []string
}

// DefaultParams re-judges the base every 4096 eligible accesses against a
// 30%/60% accuracy band.
func DefaultParams() Params {
	return Params{
		Window:   4096,
		Lo:       30,
		Hi:       60,
		MinFills: 16,
		Recent:   256,
	}
}

// step is one parameter assignment of a ladder level.
type step struct {
	key, value string
}

// ladder is an ordered aggressiveness scale; level i's steps fully determine
// the tuned parameters (every level sets the same keys, so applying a level
// never depends on the previous one).
type ladder struct {
	levels [][]step
	start  int
}

// builtinLadder returns the ladder for a known base spec name.
func builtinLadder(name string) (ladder, bool) {
	switch name {
	case "bo":
		// Aggressiveness for BO means throttling less (lower badscore keeps
		// prefetch on through weaker phases) and issuing more (degree 2).
		return ladder{levels: [][]step{
			{{"degree", "1"}, {"badscore", "4"}},
			{{"degree", "1"}, {"badscore", "1"}},
			{{"degree", "2"}, {"badscore", "1"}},
		}, start: 1}, true
	case "multi":
		// Aggressiveness for multi means a lower per-window score bar for
		// keeping an offset enabled.
		return ladder{levels: [][]step{
			{{"minscore", "48"}},
			{{"minscore", "24"}},
			{{"minscore", "12"}},
			{{"minscore", "6"}},
		}, start: 1}, true
	}
	return ladder{}, false
}

// Stats counts the wrapper's decisions for experiments and tests.
type Stats struct {
	Windows uint64 // completed monitoring windows
	Retunes uint64 // windows that moved the ladder level
	Useful  uint64 // lifetime useful prefetch fills
	Filled  uint64 // lifetime prefetch fills
}

// Prefetcher is the phase-adaptive wrapper. It implements
// prefetch.L2Prefetcher and prefetch.MetaL2.
type Prefetcher struct {
	params Params
	name   string
	base   prefetch.L2Prefetcher
	rt     prefetch.Retunable // the base's retune hook (same object as base)
	tag    bool
	lad    ladder

	level  int // current ladder level
	count  int // eligible accesses in the current window
	useful int // marked fills demanded this window
	filled int // prefetch fills this window
	// marks is a direct-mapped prefetch-fill mark table (+1 so the zero
	// value means empty), cleared every window.
	marks []mem.LineAddr
	mask  uint64

	stats Stats
}

var _ prefetch.L2Prefetcher = (*Prefetcher)(nil)
var _ prefetch.PreIssueTagChecker = (*Prefetcher)(nil)
var _ prefetch.MetaL2 = (*Prefetcher)(nil)

// New returns a phase-adaptive wrapper around a constructed base, positioned
// at its ladder's start level (the base's parameters are retuned to that
// level before the first access). The base must implement
// prefetch.Retunable, and every ladder level must be applicable; bad specs
// surface as errors — the registry's build path and direct callers share
// this validation.
func New(p Params, base prefetch.L2Prefetcher) (*Prefetcher, error) {
	if base == nil {
		return nil, fmt.Errorf("adapt: nil base")
	}
	if p.Window < 1 {
		return nil, fmt.Errorf("adapt: window=%d must be >= 1", p.Window)
	}
	if p.Lo < 0 || p.Hi > 100 || p.Lo > p.Hi {
		return nil, fmt.Errorf("adapt: accuracy band %d..%d must satisfy 0 <= lo <= hi <= 100", p.Lo, p.Hi)
	}
	if p.MinFills < 1 {
		return nil, fmt.Errorf("adapt: minfills=%d must be >= 1", p.MinFills)
	}
	if p.Recent < 1 {
		return nil, fmt.Errorf("adapt: recent=%d must be >= 1", p.Recent)
	}
	rt, ok := base.(prefetch.Retunable)
	if !ok {
		return nil, fmt.Errorf("adapt: base %q does not implement prefetch.Retunable", base.Name())
	}
	lad, err := resolveLadder(p, rt)
	if err != nil {
		return nil, err
	}
	size := 1
	for size < p.Recent {
		size <<= 1
	}
	pf := &Prefetcher{
		params: p,
		name:   "adapt[" + base.Name() + "]",
		base:   base,
		rt:     rt,
		lad:    lad,
		marks:  make([]mem.LineAddr, size),
		mask:   uint64(size - 1),
	}
	if c, ok := base.(prefetch.PreIssueTagChecker); ok && c.PreIssueTagCheck() {
		pf.tag = true
	}
	// Prove every level applies — a ladder that fails mid-run would leave
	// the base half-tuned — then land on the start level. Each level sets
	// the same keys, so the walk's end state is exactly the start level's.
	for i := range lad.levels {
		if err := pf.apply(i); err != nil {
			return nil, fmt.Errorf("adapt: ladder level %d: %v", i, err)
		}
	}
	if err := pf.apply(lad.start); err != nil {
		return nil, fmt.Errorf("adapt: ladder start level %d: %v", lad.start, err)
	}
	return pf, nil
}

// resolveLadder picks the custom key=/levels= ladder when given, otherwise
// the built-in one for the base spec's name.
func resolveLadder(p Params, rt prefetch.Retunable) (ladder, error) {
	if p.Key != "" {
		if len(p.Levels) < 2 {
			return ladder{}, fmt.Errorf("adapt: custom ladder for %q needs >= 2 levels, got %d", p.Key, len(p.Levels))
		}
		lad := ladder{levels: make([][]step, len(p.Levels))}
		for i, v := range p.Levels {
			lad.levels[i] = []step{{p.Key, v}}
		}
		return lad, nil
	}
	if lad, ok := builtinLadder(p.Base.Name); ok {
		return lad, nil
	}
	return ladder{}, fmt.Errorf("adapt: no built-in ladder for base %q (retunable: %s); set key= and levels=",
		p.Base.Name, strings.Join(rt.RetunableKeys(), "|"))
}

// Name implements prefetch.L2Prefetcher.
func (p *Prefetcher) Name() string { return p.name }

// MetaL2 implements prefetch.MetaL2.
func (p *Prefetcher) MetaL2() {}

// PreIssueTagCheck implements prefetch.PreIssueTagChecker by delegation.
func (p *Prefetcher) PreIssueTagCheck() bool { return p.tag }

// Stats returns a copy of the statistics.
func (p *Prefetcher) Stats() Stats { return p.stats }

// Level reports the current ladder level, for tests and reports.
func (p *Prefetcher) Level() int { return p.level }

// OnAccess implements prefetch.L2Prefetcher: consume a pending fill mark
// (a useful prefetch counts exactly once), advance the window, and delegate
// the access to the base.
//
//bovet:hotpath
func (p *Prefetcher) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if a.Eligible() {
		i := uint64(a.Line) & p.mask
		if p.marks[i] == a.Line+1 {
			p.marks[i] = 0
			p.useful++
		}
		p.count++
		if p.count >= p.params.Window {
			p.endWindow()
		}
	}
	return p.base.OnAccess(a)
}

// OnFill implements prefetch.L2Prefetcher: mark prefetch fills for later
// accuracy scoring and deliver the fill to the base.
//
//bovet:hotpath
func (p *Prefetcher) OnFill(line mem.LineAddr, wasPrefetch bool) {
	if wasPrefetch {
		p.marks[uint64(line)&p.mask] = line + 1
		p.filled++
	}
	p.base.OnFill(line, wasPrefetch)
}

// endWindow judges the window and moves the ladder at most one level:
// starved windows (too few fills to judge) and accurate windows climb,
// inaccurate windows descend.
func (p *Prefetcher) endWindow() {
	p.stats.Windows++
	p.stats.Useful += uint64(p.useful)
	p.stats.Filled += uint64(p.filled)
	level := p.level
	switch {
	case p.filled < p.params.MinFills:
		level++
	case p.useful*100 < p.params.Lo*p.filled:
		level--
	case p.useful*100 > p.params.Hi*p.filled:
		level++
	}
	if level < 0 {
		level = 0
	}
	if level >= len(p.lad.levels) {
		level = len(p.lad.levels) - 1
	}
	if level != p.level {
		// New proved every level applicable on this very instance, so the
		// error is impossible; swallowing it keeps the hot path free of
		// allocating failure handling.
		_ = p.apply(level)
		p.stats.Retunes++
	}
	p.useful, p.filled = 0, 0
	for i := range p.marks {
		p.marks[i] = 0
	}
	p.count = 0
}

// apply retunes the base to one ladder level and records the position.
func (p *Prefetcher) apply(level int) error {
	for _, s := range p.lad.levels[level] {
		if err := p.rt.Retune(s.key, s.value); err != nil {
			return err
		}
	}
	p.level = level
	return nil
}
