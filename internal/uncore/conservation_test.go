package uncore

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"bopsim/internal/cache"
	"bopsim/internal/dram"
	"bopsim/internal/mem"
)

// place is a bit per place that can hold the dirty data of a line.
type place uint8

const (
	inMSHR place = 1 << iota // a DL1 miss register with markWrite
	inDL1
	inL2
	inL3
	inWB // pendingWB: an L3 victim the DRAM write queue had no room for
)

// owedLine is an owed line's core and the places its dirty data was last
// seen in: its core's MSHRs, DL1 and L2, the L3 and pendingWB.
type owedLine struct {
	core int
	held place
}

// setKey names one set of one cache: a core's DL1 or L2 set, or an L3 set
// (core 0).
type setKey struct {
	cache place
	core  int
	set   int
}

// ledger is the write-conservation audit. A line a core stores to is owed
// to memory until a write of it enters the DRAM write queue, and until then
// its dirty data is somewhere: a DL1 miss register marked for a write, a
// dirty copy in its core's DL1 or L2 or in the L3, or pendingWB. The audit
// follows every owed line from cache to cache as the caches evict it, and
// holds each move to the write-back hierarchy's rules:
//   - a register marked for a write is released only into a dirty DL1 copy
//     (insertDL1);
//   - every dirty L3 victim is one write to DRAM, direct or through
//     pendingWB, and a line whose every copy vanishes has gone that way.
//
// Once the machine drains, DRAM must have written exactly those lines'
// worth (a dirty L2 victim placeL3 dropped, or a pendingWB entry
// retryWritebacks dropped, is a write DRAM never made), and the owed lines
// must be exactly the dirty lines in the caches (so only owed lines reached
// DRAM).
//
// The audit reads no model field it does not own and costs a few set
// lookups per fill: it looks only at the owed lines of the sets a fill can
// evict from, level by level.
type ledger struct {
	owed map[mem.LineAddr]owedLine
	// sets lists, per cache set, the owed lines held dirty there.
	sets map[setKey][]mem.LineAddr
	// fills and wb are what the step under way places and what pendingWB
	// held before it (expect, expectWB); seen is what settle observed after
	// it, by line, and order the lines in the order it observed them.
	fills []fill
	wb    []wbReq
	seen  map[mem.LineAddr]place
	order []mem.LineAddr
	// writes counts the dirty L3 victims: the writes DRAM owes once drained,
	// since the latest barrier. buffered counts the lines seen entering
	// pendingWB.
	writes, buffered uint64
	// stores and released count the owed lines made and paid back.
	stores, released uint64
}

func newLedger() *ledger {
	return &ledger{owed: map[mem.LineAddr]owedLine{}, sets: map[setKey][]mem.LineAddr{}, seen: map[mem.LineAddr]place{}}
}

// observe returns where line, owed by core, is held dirty now.
func observe(h *Hierarchy, core int, line mem.LineAddr) place {
	var w place
	if i := h.outstanding[core].find(line); i >= 0 && h.outstanding[core].infos[i].markWrite {
		w |= inMSHR
	}
	dirty := func(c *cache.Cache) bool {
		ln := c.Peek(line)
		return ln != nil && ln.Dirty()
	}
	if dirty(h.dl1[core]) {
		w |= inDL1
	}
	if dirty(h.l2[core]) {
		w |= inL2
	}
	if dirty(h.l3) {
		w |= inL3
	}
	if slices.ContainsFunc(h.pendingWB, func(wb wbReq) bool { return wb.line == line }) {
		w |= inWB
	}
	return w
}

// setOf returns the set of cache c (inDL1, inL2 or inL3) line is placed in.
func setOf(h *Hierarchy, c place, core int, line mem.LineAddr) setKey {
	switch c {
	case inDL1:
		return setKey{c, core, h.dl1[core].SetOf(line)}
	case inL2:
		return setKey{c, core, h.l2[core].SetOf(line)}
	}
	return setKey{inL3, 0, h.l3.SetOf(line)}
}

// record sets where line is held, keeping sets in step; held 0 pays the
// line back.
func (l *ledger) record(h *Hierarchy, line mem.LineAddr, o owedLine, held place) {
	for _, c := range []place{inDL1, inL2, inL3} {
		switch was, is := o.held&c != 0, held&c != 0; {
		case was && !is:
			k := setOf(h, c, o.core, line)
			s := l.sets[k]
			i := slices.Index(s, line)
			s[i] = s[len(s)-1]
			l.sets[k] = s[:len(s)-1]
		case is && !was:
			k := setOf(h, c, o.core, line)
			l.sets[k] = append(l.sets[k], line)
		}
	}
	if held == 0 {
		delete(l.owed, line)
		l.released++
		return
	}
	o.held = held
	l.owed[line] = o
}

// stored makes line owed by core after Demand accepted a store to it: the
// store's data is in a dirty DL1 copy or a register marked for a write.
func (l *ledger) stored(t *testing.T, h *Hierarchy, core int, line mem.LineAddr, now uint64) {
	held := observe(h, core, line)
	if held&(inMSHR|inDL1) == 0 {
		t.Helper() // here only: Helper is costly, and this runs on every store
		t.Fatalf("cycle %d core %d: Demand accepted a store to line %#x, but neither its DL1 copy nor its MSHR holds the store (held: %s)",
			now, core, line, held)
	}
	o, ok := l.owed[line]
	if !ok {
		o = owedLine{core: core}
		l.stores++
	}
	l.record(h, line, o, held)
}

// look observes the owed lines of set k, and returns those that left it.
func (l *ledger) look(h *Hierarchy, k setKey, left []mem.LineAddr) []mem.LineAddr {
	for _, line := range l.sets[k] {
		now := l.see(h, line)
		if now&k.cache == 0 {
			left = append(left, line)
		}
	}
	return left
}

// see observes line, if it is owed, once per settle.
func (l *ledger) see(h *Hierarchy, line mem.LineAddr) place {
	if w, ok := l.seen[line]; ok {
		return w
	}
	o, ok := l.owed[line]
	if !ok {
		return 0
	}
	w := observe(h, o.core, line)
	l.seen[line] = w
	l.order = append(l.order, line)
	return w
}

// fill is a block a step placed into core's caches: line, into the L3,
// into the L2, or into the L2 and on to the DL1 (or straight into the DL1,
// an L2 hit: looking at its L2 set too costs a little and misses nothing).
type fill struct {
	core int
	line mem.LineAddr
	into place // inL3, inL2 or inDL1
}

// expect notes a fill the next step places. A nil ledger (a machine that is
// not audited) notes nothing, here and in expectWB and settle.
func (l *ledger) expect(f fill) {
	if l != nil {
		l.fills = append(l.fills, f)
	}
}

// expectWB notes what pendingWB holds before the next step.
func (l *ledger) expectWB(h *Hierarchy) {
	if l != nil {
		l.wb = append(l.wb[:0], h.pendingWB...)
	}
}

// settle follows, after a step, every owed line the step can have moved —
// each expected fill's own line, the owed lines of the sets it was placed
// in, and level by level the owed lines of the sets their victims were
// placed in, plus the lines pendingWB held before the step — and holds each
// move to the rules (see ledger).
func (l *ledger) settle(t *testing.T, h *Hierarchy, now uint64) {
	if l == nil {
		return
	}
	var v1, v2 []mem.LineAddr
	for _, f := range l.fills {
		l.see(h, f.line)
		switch f.into {
		case inDL1:
			v1 = l.look(h, setOf(h, inDL1, f.core, f.line), v1)
			fallthrough
		case inL2:
			v2 = l.look(h, setOf(h, inL2, f.core, f.line), v2)
		default:
			l.look(h, setOf(h, inL3, 0, f.line), nil)
		}
	}
	for _, line := range v1 { // dirty DL1 victims, placed into their L2 set
		v2 = l.look(h, setOf(h, inL2, l.owed[line].core, line), v2)
	}
	for _, line := range v2 { // dirty L2 victims, placed into their L3 set
		l.look(h, setOf(h, inL3, 0, line), nil)
	}
	for _, w := range l.wb {
		l.see(h, w.line)
	}
	for _, line := range l.order {
		o, held := l.owed[line], l.seen[line]
		lost := o.held &^ held
		if lost&inMSHR != 0 && held&inDL1 == 0 {
			t.Helper()
			t.Fatalf("cycle %d core %d: a store to line %#x is lost: its MSHR, marked for a write, was released, but the DL1 copy is not dirty (held %s, now %s)",
				now, o.core, line, o.held, held)
		}
		// A dirty L3 victim is one write, to DRAM or into pendingWB; a line
		// that reached pendingWB or left the hierarchy without its L3 copy
		// being seen passed through the L3 within the step.
		if lost&inL3 != 0 || o.held&(inL3|inWB) == 0 && (held == 0 || held&inWB != 0) {
			l.writes++
		}
		if held&^o.held&inWB != 0 {
			l.buffered++
		}
		if held != o.held {
			l.record(h, line, o, held)
		}
	}
	clear(l.seen)
	l.fills, l.wb, l.order = l.fills[:0], l.wb[:0], l.order[:0]
}

// drained checks a drained hierarchy against the ledger: DRAM wrote one line
// per dirty L3 victim since the latest barrier, and the owed lines are
// exactly the caches' dirty lines, each where the ledger last saw it.
func (l *ledger) drained(t *testing.T, h *Hierarchy) {
	t.Helper()
	if writes := h.mem.TotalStats().Writes; writes != l.writes {
		t.Fatalf("drained: DRAM wrote %d lines back, but %d dirty lines left the caches for it: %d lost on the way",
			writes, l.writes, int64(l.writes)-int64(writes))
	}
	dirty := map[mem.LineAddr]place{}
	add := func(c *cache.Cache, p place) {
		// cache.State's line records: index delta, line, flags, owner core.
		st := c.SaveState()
		for b := st.Lines; len(b) > 0; {
			_, n := binary.Uvarint(b)
			line, m := binary.Uvarint(b[n:])
			flags := b[n+m]
			_, k := binary.Uvarint(b[n+m+1:])
			b = b[n+m+1+k:]
			if flags&1 != 0 { // dirty
				dirty[mem.LineAddr(line)] |= p
			}
		}
	}
	for c := range h.dl1 {
		add(h.dl1[c], inDL1)
		add(h.l2[c], inL2)
	}
	add(h.l3, inL3)
	for line, held := range dirty {
		if l.owed[line].held != held {
			t.Errorf("drained: line %#x is dirty in %s, but the ledger has it owed in %s (no store to it is on record, or one moved unseen)",
				line, held, l.owed[line].held)
		}
	}
	for line, o := range l.owed {
		if _, ok := dirty[line]; !ok {
			t.Errorf("drained: line %#x, owed by core %d in %s, is dirty nowhere", line, o.core, o.held)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
}

// String names the places of p, for messages.
func (p place) String() string {
	var s []string
	for i, name := range []string{"MSHR", "DL1", "L2", "L3", "pendingWB"} {
		if p&(1<<i) != 0 {
			s = append(s, name)
		}
	}
	if s == nil {
		return "nowhere"
	}
	return "[" + strings.Join(s, " ") + "]"
}

// drain runs the audited machine dry from cycle now, its front ends idle,
// and checks its ledger against the drained hierarchy. It returns the cycle
// the machine drained at.
func (m *machine) drain(t *testing.T, now, limit uint64) uint64 {
	t.Helper()
	paths := map[string]int{}
	for ; !m.h.Drained(); now++ {
		if now > limit {
			t.Fatalf("not drained by cycle %d", limit)
		}
		m.checkedTick(t, now, paths)
	}
	m.releaseHeld()
	l := m.ledger
	l.drained(t, m.h)
	t.Logf("drained at cycle %d: %d lines owed by a store and %d paid back so far; %d written back by this DRAM, %d of them through pendingWB",
		now, l.stores, l.released, l.writes, l.buffered)
	return now
}

// storeRows are the ledger's own rows: the two store streams the model lock
// pins — a store stream whose dirty victims reach DRAM, and a load/store
// stream whose stores merge onto the MSHRs of loads the L2 serves — and a
// 4-core row mixing them with loads. An L2 and an L3 a few times smaller
// than the defaults make the L3 write lines back within a few thousand
// cycles, and a 1-entry DRAM write queue sends L3 victims through
// pendingWB.
func storeRows() []stallRow {
	const writeback, merged = "stream:storepct=100,memper1000=900,footprint=64mb",
		"stream:storepct=50,memper1000=900,stride=32,footprint=12mb"
	small := func(c *Config) { c.DL1Size, c.L2Size, c.L3Size = 8<<10, 16<<10, 32<<10 }
	shortWrites := func(p *dram.Params) { p.WriteQueueLen = 1 }
	return []stallRow{
		{name: "stores-writeback", workloads: []string{writeback}, l2pf: "nextline", l1pf: "stride",
			cycles: 20_000, cfg: small, dram: shortWrites},
		{name: "stores-merged", workloads: []string{merged}, l2pf: "bo", l1pf: "stride",
			cycles: 20_000, cfg: small, dram: shortWrites},
		{name: "4core-stores", workloads: []string{writeback, merged, writeback, "429.mcf"},
			l2pf: "bo:degree=2", l1pf: "stride", cycles: 20_000, cfg: small, dram: shortWrites},
	}
}

// TestNoStoreIsLost runs the ledger over storeRows across a warmup barrier:
// the audited machine runs half the row, drains, and its state is restored
// into a fresh hierarchy, which runs the other half and drains. Each drain
// holds DRAM's writes and the caches' dirty lines to the ledger. (The
// lock-step rows run the ledger too, on their audited machine.)
func TestNoStoreIsLost(t *testing.T) {
	buffered := uint64(0)
	for _, row := range storeRows() {
		t.Run(row.name, func(t *testing.T) {
			m := row.build(t, true)
			m.audit, m.ledger = t, newLedger()
			now := uint64(0)
			for half := 1; half <= 2; half++ {
				for end := row.cycles * uint64(half) / 2; now < end; now++ {
					m.front(now)
					m.checkedTick(t, now, map[string]int{})
				}
				now = m.drain(t, now, 2*row.cycles*uint64(half))
				if half == 2 {
					break
				}
				st, err := m.h.SaveState()
				if err != nil {
					t.Fatal(err)
				}
				fresh := row.build(t, true)
				if err := fresh.h.RestoreState(st); err != nil {
					t.Fatal(err)
				}
				// The restored DRAM has written nothing yet.
				fresh.fes, fresh.audit, fresh.ledger = m.fes, t, m.ledger
				fresh.ledger.writes = 0
				m = fresh
			}
			if m.ledger.writes == 0 {
				t.Error("DRAM wrote no line back: the row no longer reaches the write-back path")
			}
			buffered += m.ledger.buffered
		})
	}
	if buffered == 0 {
		t.Error("no L3 victim waited in pendingWB: the rows no longer reach the write-back retry")
	}
}
