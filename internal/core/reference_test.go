package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// reference is a deliberately naive best-offset learner, written from the
// text of paper section 4 and from the learning loop of SNIPPETS.md snippet 3
// (Michaud's code as a ChampSim sandbox prefetcher carries it), not from
// bo.go or rrtable.go. FuzzBOAgainstReference runs it beside Prefetcher.
//
//   - RR table (sections 4.1 and 4.4): 256 direct-mapped entries, indexed by
//     the 8 low line-address bits XOR the next 8, holding a 12-bit tag, the
//     line bits above the index. It is a map from slot to tag.
//   - Widths are snippet 3's: 5-bit saturating scores (SCORE_MAX 31) and a
//     7-bit round counter (ROUND_MAX 100). Its 7-bit best-offset register is
//     not: Table 2's offsets reach 256, so the best offset here is an int, as
//     Prefetcher's is.
//   - A phase ends when a score reaches SCORE_MAX or the round counter
//     reaches ROUND_MAX. The best offset becomes D (snippet 3's
//     DEFAULT_OFFSET 1 when nothing scored; both configurations list offset 1
//     first, so that is Prefetcher's Offsets[0] too), and a best score at or
//     below BADSCORE turns prefetch off. D keeps the best offset while off,
//     as in Prefetcher (snippet 3 stores 0 there; neither prefetches).
//   - While prefetch is on, a prefetched line Y filled into the L2 inserts
//     its base address Y-D when that shares Y's page; while it is off, every
//     fill inserts Y itself (section 4.3).
//   - degree=2 (section 4.3): an access X prefetches X+D and then X+D2, each
//     when it shares X's page, where D2 is the phase's second-best offset:
//     the highest score among the offsets other than D, the first in list
//     order on a tie, and none when no other offset scored. Every phase end
//     sets D2 afresh, so a phase with no second best leaves none, whatever
//     the phase before it chose. The paper leaves open which base a D2
//     prefetch's fill inserts into the RR table. The reference takes Y-D for
//     every prefetched fill, D2's included: a fill carries only the line and
//     the L2's prefetch bit (what OnFill sees), not the offset that asked for
//     it, and Y-D is the base section 4.3 gives for a prefetched line. An
//     offset list that repeats an offset is refused at degree 2, where
//     "other than D" would be ambiguous.
//
// It refuses every other knob Prefetcher has beyond Table 2 and an offset
// list: adaptive=true, whose floating BADSCORE is this repository's
// extension with no rule in the paper to transliterate (section 7 names it
// future work), rratissue, allaccess, and any RR geometry, SCORE_MAX or
// ROUND_MAX but the paper's. Snippet 1's per-PC counters and credit-on-hit
// map are not the paper's algorithm, and nothing here follows them.
//
// Two rules of a learning step are left by the paper to its code, and the
// reference follows Prefetcher's decision on each (Prefetcher.learn says
// why) unless its refRules flip one:
//   - Offset d scores on access X only when X-d is in X's page, as snippet
//     3's SAMEPAGE test requires; crossPage scores X-d in any page.
//   - A new best offset needs a strictly higher score, so the first offset in
//     list order to reach a score keeps it; tiesToLater takes snippet 3's >=,
//     so the last one does.
type reference struct {
	offsets      []int
	badScore     int
	degree       int
	linesPerPage int64
	rules        refRules

	rr map[int]uint16

	score    []uint8 // 5 bits each, saturating
	maxScore uint8   // 5 bits
	best     int     // 0 until an offset scores
	round    uint8   // 7 bits
	index    int     // next offset to test

	d      int
	d2     int // 0: no second offset
	on     bool
	phases int
}

// refRules flips the reference's learning rules away from Prefetcher's; the
// zero value is Prefetcher's.
type refRules struct {
	crossPage   bool // score a base X-d outside X's page
	tiesToLater bool // snippet 3's >=: an equal score takes the lead
}

const (
	refScoreMax = 31
	refRoundMax = 100
	refRRSlots  = 256
)

// newReference returns a reference learner for p, or an error naming the
// setting it does not model.
func newReference(p Params, page mem.PageSize, rules refRules) (*reference, error) {
	switch {
	case p.Degree == 2 && repeats(p.Offsets):
		return nil, fmt.Errorf("degree=2 with a repeated offset: the second-best offset is ambiguous")
	case p.AdaptiveThrottle:
		return nil, fmt.Errorf("adaptive=true: the paper gives no rule for a floating BADSCORE")
	case p.InsertRRAtIssue || p.TriggerOnAllAccesses:
		return nil, fmt.Errorf("the reference models neither ablation")
	case p.RREntries != refRRSlots || p.RRTagBits != 12 || p.ScoreMax != refScoreMax || p.RoundMax != refRoundMax:
		return nil, fmt.Errorf("the reference has section 4.4's RR table and snippet 3's widths only")
	}
	return &reference{
		offsets:      p.Offsets,
		badScore:     p.BadScore,
		degree:       p.Degree,
		linesPerPage: int64(page) / 64,
		rules:        rules,
		rr:           map[int]uint16{},
		score:        make([]uint8, len(p.Offsets)),
		d:            1,
		on:           true,
	}, nil
}

// repeats reports whether some offset appears twice in offs.
func repeats(offs []int) bool {
	sorted := slices.Clone(offs)
	slices.Sort(sorted)
	return len(slices.Compact(sorted)) < len(offs)
}

func (r *reference) samePage(a, b int64) bool { return a/r.linesPerPage == b/r.linesPerPage }

func rrSlot(line int64) int         { return int(line&0xff ^ line>>8&0xff) }
func rrTag(line int64) uint16       { return uint16(line >> 8 & 0xfff) }
func (r *reference) insert(l int64) { r.rr[rrSlot(l)] = rrTag(l) }

func (r *reference) hit(l int64) bool {
	tag, ok := r.rr[rrSlot(l)]
	return ok && tag == rrTag(l)
}

// OnAccess takes one L2 access: only a miss or a prefetched hit learns and
// prefetches (section 5.6).
func (r *reference) OnAccess(a prefetch.AccessInfo) []mem.LineAddr {
	if a.Hit && !a.PrefetchedHit {
		return nil
	}
	x := int64(a.Line)
	r.learn(x)
	if !r.on {
		return nil
	}
	var out []mem.LineAddr
	for _, d := range []int{r.d, r.d2} {
		if t := x + int64(d); d != 0 && t >= 0 && r.samePage(x, t) {
			out = append(out, mem.LineAddr(t))
		}
	}
	return out
}

func (r *reference) learn(x int64) {
	test := r.offsets[r.index]
	base := x - int64(test)
	if base >= 0 && (r.rules.crossPage || r.samePage(x, base)) && r.hit(base) {
		if r.score[r.index] < refScoreMax {
			r.score[r.index]++
		}
		s := r.score[r.index]
		if s > r.maxScore || r.rules.tiesToLater && s == r.maxScore {
			r.maxScore, r.best = s, test
		}
	}
	if r.index < len(r.offsets)-1 {
		r.index++
		return
	}
	r.index = 0
	r.round = (r.round + 1) & 0x7f
	if r.maxScore == refScoreMax || r.round == refRoundMax {
		r.endPhase()
	}
}

func (r *reference) endPhase() {
	r.phases++
	r.d = r.best
	if r.d == 0 {
		r.d = 1
	}
	r.on = int(r.maxScore) > r.badScore
	r.d2 = 0
	if r.degree == 2 {
		var s2 uint8
		for i, s := range r.score {
			if r.offsets[i] != r.d && s > s2 {
				r.d2, s2 = r.offsets[i], s
			}
		}
	}
	clear(r.score)
	r.maxScore, r.best, r.round = 0, 0, 0
}

// OnFill takes one line filled into the L2.
func (r *reference) OnFill(y mem.LineAddr, wasPrefetch bool) {
	l := int64(y)
	switch {
	case !r.on:
		r.insert(l)
	case wasPrefetch:
		if base := l - int64(r.d); base >= 0 && r.samePage(l, base) {
			r.insert(base)
		}
	}
}

// paperOffsets is section 4.2's list: every offset from 1 to 256 with no
// prime factor above 5.
func paperOffsets() []int {
	var out []int
	for d := 1; d <= 256; d++ {
		n := d
		for _, f := range []int{2, 3, 5} {
			for n%f == 0 {
				n /= f
			}
		}
		if n == 1 {
			out = append(out, d)
		}
	}
	return out
}

// snippet3Spec is snippet 3's configuration spelled as a bo spec: its 46
// signed offsets up to ±40 and BAD_SCORE 10.
var snippet3Spec = func() string {
	var offs []string
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 24, 30, 32, 36, 40} {
		offs = append(offs, fmt.Sprint(d), fmt.Sprint(-d))
	}
	return "bo:offsets=" + strings.Join(offs, "+") + ",badscore=10"
}()

// learner is what the stream drives: Prefetcher or reference.
type learner interface {
	OnAccess(prefetch.AccessInfo) []mem.LineAddr
	OnFill(mem.LineAddr, bool)
}

// l2Model is a toy L2 in front of one learner: refL2Lines direct-mapped
// slots, each holding a line as a prefetch still in flight, a prefetched line
// not yet touched, or a line the core has touched. A fill arrives lag
// accesses after its request. An access to an in-flight prefetch is a miss
// (a late prefetch), to an untouched prefetched line a prefetched hit, to a
// touched line a plain hit; a miss that no prefetch covers fills as a demand.
type l2Model struct {
	l     learner
	slots [refL2Lines]struct {
		line  mem.LineAddr
		state uint8
	}
	due [refMaxLag + 1][]refFill // fills by arrival time modulo refMaxLag+1
	now int
}

type refFill struct {
	line        mem.LineAddr
	wasPrefetch bool
}

const (
	refL2Lines = 1024
	refMaxLag  = 31
	inFlight   = 1 // l2Model line states; 0 is an empty or foreign slot
	prefetched = 2
	touched    = 3
)

func newL2Model(l learner) *l2Model { return &l2Model{l: l} }

func (m *l2Model) state(line mem.LineAddr) uint8 {
	if sl := &m.slots[line%refL2Lines]; sl.line == line {
		return sl.state
	}
	return 0
}

func (m *l2Model) set(line mem.LineAddr, state uint8) {
	sl := &m.slots[line%refL2Lines]
	sl.line, sl.state = line, state
}

func (m *l2Model) request(f refFill, lag int) {
	i := (m.now + lag + 1) % len(m.due) // due at the (lag+1)th access from now
	m.due[i] = append(m.due[i], f)
}

// access delivers the fills due, then sends line to the learner and queues
// what it asks for.
func (m *l2Model) access(line mem.LineAddr, lag int) []mem.LineAddr {
	m.now++
	due := &m.due[m.now%len(m.due)]
	for _, f := range *due {
		m.l.OnFill(f.line, f.wasPrefetch)
		if f.wasPrefetch && m.state(f.line) == inFlight {
			m.set(f.line, prefetched)
		}
	}
	*due = (*due)[:0]
	a := prefetch.AccessInfo{Line: line}
	switch m.state(line) {
	case prefetched:
		a.Hit, a.PrefetchedHit = true, true
	case touched:
		a.Hit = true
	case 0:
		m.request(refFill{line: line}, lag)
	}
	if m.state(line) != inFlight {
		m.set(line, touched)
	}
	targets := m.l.OnAccess(a)
	for _, t := range targets {
		if m.state(t) == 0 {
			m.set(t, inFlight)
			m.request(refFill{line: t, wasPrefetch: true}, lag)
		}
	}
	return targets
}

// refAccesses is the length of one stream: enough for a few learning phases
// (a phase is 31 to 100 rounds of 46 or 52 accesses).
const refAccesses = 8_000

// refStream turns fuzz bytes into an access stream: data[0] picks the
// configuration (bit 0: snippet 3's, else Table 2's; bit 2: either at
// degree=2) and the page size (bit 1: 4MB), and each following 4-byte group
// is one segment, replayed in a loop until refAccesses accesses: a stride (0:
// pseudo-random lines), a length, the fill lag and flags (bit 0: jump to a
// new region; bit 1: interleave a second stream at three times the stride;
// bits 2-3, read as k > 0: every (k+2)th access goes back one stride).
type refStream struct {
	name, spec string
	page       mem.PageSize
	segs       [][4]byte
}

func decodeStream(data []byte) refStream {
	s := refStream{name: "table2", spec: "bo", page: mem.Page4K}
	if len(data) > 0 {
		if data[0]&1 != 0 {
			s.name, s.spec = "snippet3", snippet3Spec
		}
		if data[0]&2 != 0 {
			s.page = mem.Page4M
		}
		if data[0]&4 != 0 {
			sep := ","
			if s.spec == "bo" {
				sep = ":"
			}
			s.name, s.spec = s.name+"-degree2", s.spec+sep+"degree=2"
		}
		data = data[1:]
	}
	for ; len(data) >= 4; data = data[4:] {
		s.segs = append(s.segs, [4]byte(data[:4]))
	}
	if len(s.segs) == 0 {
		s.segs = [][4]byte{{1, 64, 8, 0}}
	}
	return s
}

// each calls visit with every access of the stream and its fill lag.
func (s refStream) each(visit func(line mem.LineAddr, lag int)) {
	x, y := int64(1)<<24, int64(1)<<25
	rnd := uint64(0x9e3779b97f4a7c15)
	for n := 0; n < refAccesses; {
		for _, g := range s.segs {
			stride, length, lag, flags := int64(int8(g[0]))%48, 16+int(g[1])*4, int(g[2]%(refMaxLag+1)), g[3]
			if flags&1 != 0 {
				x += int64(mem.Mix64(uint64(x))%4096) * 64
			}
			back := int(flags>>2&3) + 2
			for i := 0; i < length && n < refAccesses; i, n = i+1, n+1 {
				if stride == 0 {
					rnd = mem.Mix64(rnd)
					visit(mem.LineAddr(x+int64(rnd%(1<<20))), lag)
					continue
				}
				if flags&12 != 0 && i%back == back-1 {
					visit(mem.LineAddr(x-stride), lag)
					continue
				}
				x += stride
				visit(mem.LineAddr(x), lag)
				if flags&2 != 0 {
					y += 3 * stride
					visit(mem.LineAddr(y), lag)
					n++
				}
			}
		}
	}
}

// phaseEnd is what a learning phase decided.
type phaseEnd struct {
	d, d2 int
	on    bool
}

// same reports whether two phases decided the same prefetching: D and D2
// matter only while prefetch is on.
func (e phaseEnd) same(o phaseEnd) bool {
	return e.on == o.on && (!e.on || e.d == o.d && e.d2 == o.d2)
}

// build returns the Prefetcher the stream's spec names and its reference.
func (s refStream) build(t testing.TB, rules refRules) (*Prefetcher, *reference) {
	t.Helper()
	pf, err := prefetch.NewL2(prefetch.MustSpec(s.spec), s.page)
	if err != nil {
		t.Fatal(err)
	}
	p := pf.(*Prefetcher)
	ref, err := newReference(p.params, s.page, rules)
	if err != nil {
		t.Fatal(err)
	}
	return p, ref
}

// lockStep drives a Prefetcher and its reference (Prefetcher's rules) over
// the stream and fails at the first access whose prefetch list they disagree
// on, and at the first phase end after which they hold a different on/off
// state, a different D or D2 or a different RR table. It returns the number
// of phase ends compared and what the run covered.
func lockStep(t testing.TB, s refStream) (n int, c refCoverage) {
	t.Helper()
	p, ref := s.build(t, refRules{})
	mp, mr := newL2Model(p), newL2Model(ref)
	s.each(func(line mem.LineAddr, lag int) {
		if n < 0 {
			return
		}
		got, want := mp.access(line, lag), mr.access(line, lag)
		if !slices.Equal(got, want) {
			t.Errorf("%s, %v pages, access %d to line %#x: Prefetcher asks for %v, the reference for %v", s.name, s.page, mp.now, line, got, want)
			n = -1
			return
		}
		if len(got) == 2 {
			c.pairs++
		}
		if int(p.stats.Phases) == n && ref.phases == n {
			return
		}
		n++
		if int(p.stats.Phases) != n || ref.phases != n {
			t.Errorf("%s, %v pages, access %d: Prefetcher has ended %d phases, the reference %d", s.name, s.page, mp.now, p.stats.Phases, ref.phases)
			n = -1
			return
		}
		if got, want := (phaseEnd{p.d, p.d2, p.on}), (phaseEnd{ref.d, ref.d2, ref.on}); got != want {
			t.Errorf("%s, %v pages, phase %d: Prefetcher ends with D=%d D2=%d on=%v, the reference with D=%d D2=%d on=%v",
				s.name, s.page, n, got.d, got.d2, got.on, want.d, want.d2, want.on)
			n = -1
			return
		}
		for i := 0; i < refRRSlots; i++ {
			tag, ok := ref.rr[i]
			if p.rr.valid[i] != ok || ok && p.rr.tags[i] != tag {
				t.Errorf("%s, %v pages, phase %d: RR slot %d holds valid=%v tag %#x, the reference valid=%v tag %#x",
					s.name, s.page, n, i, p.rr.valid[i], p.rr.tags[i], ok, tag)
				n = -1
				return
			}
		}
		if p.params.Degree == 2 && p.d2 != 0 {
			c.d2++
		} else if p.params.Degree == 2 {
			c.noD2++
		}
	})
	c.on, c.off = int(p.stats.Phases-p.stats.PhasesOff), int(p.stats.PhasesOff)
	return n, c
}

// refCoverage is what one lock-step run covered: phase ends with prefetch on
// and off, accesses that asked for two lines, and degree-2 phase ends with
// and without a second offset.
type refCoverage struct{ on, off, pairs, d2, noD2 int }

func (c *refCoverage) add(o refCoverage) {
	c.on, c.off, c.pairs, c.d2, c.noD2 = c.on+o.on, c.off+o.off, c.pairs+o.pairs, c.d2+o.d2, c.noD2+o.noD2
}

// refSeeds are the fuzz seeds: each configuration on streams BO learns (unit,
// odd and negative strides, two interleaved streams, lags short and long)
// and on pseudo-random lines that should turn it off and back on.
var refSeeds = [][]byte{
	{0, 1, 255, 4, 0},
	{1, 1, 255, 20, 0},
	{0, 3, 200, 12, 2, 0, 150, 3, 1},
	{1, 253, 200, 6, 0, 7, 200, 25, 4},
	{2, 5, 255, 30, 12, 1, 100, 2, 0},
	{0, 0, 255, 5, 0},
	{1, 0, 255, 5, 0},
	{0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 2, 255, 16, 1},
	{1, 0, 255, 5, 0, 1, 255, 9, 8},
	{3, 7, 180, 10, 6, 254, 60, 1, 1},
	{4, 1, 255, 4, 0},
	{5, 253, 200, 6, 0, 7, 200, 25, 4},
	{6, 3, 200, 12, 2, 0, 150, 3, 1},
	{4, 0, 255, 5, 0},
	{5, 0, 255, 5, 0},
	{5, 1, 255, 20, 0},
	{4, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 2, 255, 16, 1},
	{5, 0, 255, 5, 0, 1, 255, 9, 8},
	// A unit stride of 32 rounds, just long enough to end the first phase on
	// a score with a second offset, then pseudo-random lines long enough to
	// end the next phase with none.
	{4, 1, 255, 4, 0, 1, 148, 4, 0, 0, 255, 5, 1, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0},
	{4, 1, 255, 8, 0, 1, 146, 8, 0, 0, 255, 5, 1, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0, 0, 255, 5, 0},
}

// FuzzBOAgainstReference holds Prefetcher to the reference learner in lock
// step over fuzzed access and fill streams, in Table 2's configuration and
// in snippet 3's, each at degree 1 and 2 (see reference and refStream).
func FuzzBOAgainstReference(f *testing.F) {
	for _, s := range refSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		lockStep(t, decodeStream(data))
	})
}

// TestReferenceCoversPhaseEnds keeps the fuzz seeds meaningful: they must
// end learning phases in all four configurations, with prefetch both on and
// off; at degree 2 some accesses must ask for two lines and some phases must
// end with a second offset and some without. The reference must be built
// from the paper's offset list.
func TestReferenceCoversPhaseEnds(t *testing.T) {
	if got, want := DefaultParams().Offsets, paperOffsets(); !slices.Equal(got, want) {
		t.Fatalf("Table 2's offsets %v, section 4.2's %v", got, want)
	}
	phases := map[string]int{}
	var all refCoverage
	for _, seed := range refSeeds {
		s := decodeStream(seed)
		n, c := lockStep(t, s)
		phases[s.name] += n
		all.add(c)
	}
	t.Logf("phase ends compared: %v; %+v", phases, all)
	for _, name := range []string{"table2", "snippet3", "table2-degree2", "snippet3-degree2"} {
		if phases[name] < 4 {
			t.Errorf("the seeds end %d phases in %s, want at least 4", phases[name], name)
		}
	}
	if all.on == 0 || all.off == 0 || all.pairs == 0 || all.d2 == 0 || all.noD2 == 0 {
		t.Errorf("the seeds miss a case: %+v", all)
	}
	for _, spec := range []string{"bo:adaptive=true", "bo:degree=2,offsets=1+2+1"} {
		pf, err := prefetch.NewL2(prefetch.MustSpec(spec), mem.Page4K)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := newReference(pf.(*Prefetcher).params, mem.Page4K, refRules{}); err == nil {
			t.Errorf("the reference accepted %s", spec)
		}
	}
}

// TestReferenceSnippetRules holds Prefetcher to its decision on each of the
// two learning rules the paper leaves to its code (Prefetcher.learn): it
// scores only a base in the access's page, as snippet 3 does, and keeps the
// first offset to reach a score, where snippet 3 takes the last. Over the
// fuzz seeds, run in Table 2's configuration and in snippet 3's, Prefetcher
// must end every phase as the reference with its own rules does, and each
// rule flipped must end some phase differently, so the seeds tell each
// decision from its alternative.
func TestReferenceSnippetRules(t *testing.T) {
	for _, cfg := range []byte{0, 1} {
		name := map[byte]string{0: "table2", 1: "snippet3"}[cfg]
		t.Run(name, func(t *testing.T) {
			differ := func(rules refRules) (ends, differ int) {
				for _, seed := range refSeeds {
					s := decodeStream(append([]byte{cfg}, seed[1:]...))
					p, ref := s.build(t, rules)
					var pe, re []phaseEnd
					mp, mr := newL2Model(p), newL2Model(ref)
					s.each(func(line mem.LineAddr, lag int) {
						mp.access(line, lag)
						mr.access(line, lag)
						if int(p.stats.Phases) > len(pe) {
							pe = append(pe, phaseEnd{p.d, p.d2, p.on})
						}
						if ref.phases > len(re) {
							re = append(re, phaseEnd{ref.d, ref.d2, ref.on})
						}
					})
					ends += max(len(pe), len(re))
					differ += max(len(pe), len(re)) - min(len(pe), len(re))
					for i := range min(len(pe), len(re)) {
						if !pe[i].same(re[i]) {
							differ++
						}
					}
				}
				return ends, differ
			}
			if ends, n := differ(refRules{}); n != 0 {
				t.Errorf("%d of %d phase ends differ from the reference with Prefetcher's own rules", n, ends)
			}
			for _, c := range []struct {
				name  string
				rules refRules
			}{
				{"a base in another page scores", refRules{crossPage: true}},
				{"ties go to the later offset (snippet 3's >=)", refRules{tiesToLater: true}},
			} {
				ends, n := differ(c.rules)
				t.Logf("%s: %d of %d phase ends decide differently", c.name, n, ends)
				if n == 0 {
					t.Errorf("%s: no phase end of the seeds decides differently, so they cannot tell Prefetcher's rule from it", c.name)
				}
			}
		})
	}
}
