package dram

import (
	"math/rand"
	"testing"

	"bopsim/internal/mem"
)

// timingRef is a reference DRAM timing model written from Table 1 alone: an
// open-page bank per (channel, bank), one data bus per channel, and the
// minimum spacings tRCD, tRP, tRAS, tRTP, tWR, tWTR, tCL/tCWL and tBURST. It
// is told which request each controller issued at which bus tick, and places
// that request's commands at their earliest legal cycles, never before the
// tick. Every constraint is a minimum spacing from an earlier command, so
// this schedule is a lower bound on any legal one with the same issue order
// and ticks: no observed data transfer may start before the reference's.
type timingRef struct {
	p     Params
	banks [][]refBank // [channel][bank]
	bus   []uint64    // [channel] first cycle the data bus is free
	wtr   []uint64    // [channel] earliest read CAS: tWTR after the latest write's data
}

// refBank is the reference's record of one bank.
type refBank struct {
	open   bool
	row    uint64
	act    uint64 // latest ACTIVATE
	preMin uint64 // earliest legal PRECHARGE: tRAS after act, tRTP after a read CAS, tWR after write data
}

func newTimingRef(p Params) *timingRef {
	r := &timingRef{p: p, banks: make([][]refBank, Channels), bus: make([]uint64, Channels), wtr: make([]uint64, Channels)}
	for i := range r.banks {
		r.banks[i] = make([]refBank, Banks)
	}
	return r
}

// place schedules a request issued at bus tick now and returns the first
// cycle of its data transfer.
func (r *timingRef) place(loc Location, write bool, now uint64) uint64 {
	bus := func(n int) uint64 { return uint64(n * r.p.BusRatio) }
	b := &r.banks[loc.Channel][loc.Bank]
	if !b.open || b.row != loc.Row {
		act := now // a bank never opened needs no PRECHARGE
		if b.open {
			act = max(now, b.preMin) + bus(r.p.TRP)
		}
		*b = refBank{open: true, row: loc.Row, act: act, preMin: act + bus(r.p.TRAS)}
	}
	latency := r.p.TCL
	if write {
		latency = r.p.TCWL
	}
	cas := max(now, b.act+bus(r.p.TRCD))
	if !write {
		cas = max(cas, r.wtr[loc.Channel])
	}
	start := max(cas+bus(latency), r.bus[loc.Channel])
	end := start + bus(r.p.TBURST)
	r.bus[loc.Channel] = end
	if write {
		b.preMin = max(b.preMin, end+bus(r.p.TWR))
		r.wtr[loc.Channel] = end + bus(r.p.TWTR)
	} else {
		b.preMin = max(b.preMin, start-bus(latency)+bus(r.p.TRTP)) // the CAS the bus let out
	}
	return start
}

// lineAt returns the col-th line, in address order, of a row of a bank.
func lineAt(ch, bank int, row uint64, col int) mem.LineAddr {
	for l := mem.LineAddr(row << 11); ; l++ {
		if loc := MapAddress(l); loc.Channel == ch && loc.Bank == bank && loc.Row == row {
			if col == 0 {
				return l
			}
			col--
		}
	}
}

// timingPool is the fuzzer's address space: two lines (columns) of each row
// 0-2 of banks 0-3 on both channels, so a stream meets row hits and conflicts.
var timingPool = func() []mem.LineAddr {
	var pool []mem.LineAddr
	for ch := 0; ch < 2; ch++ {
		for bank := 0; bank < 4; bank++ {
			for row := uint64(0); row < 3; row++ {
				pool = append(pool, lineAt(ch, bank, row, 0), lineAt(ch, bank, row, 1))
			}
		}
	}
	return pool
}()

// queuedReq is a request as it stood in a controller queue before a tick.
type queuedReq struct {
	at *request
	request
}

func queuedIn(c *controller) []queuedReq {
	var out []queuedReq
	for _, qs := range [][][]*request{c.readQ, c.writeQ} {
		for _, q := range qs {
			for _, r := range q {
				out = append(out, queuedReq{r, *r})
			}
		}
	}
	return out
}

// issuedBy returns the request the tick took out of c's queues, which held
// before before it.
func issuedBy(t *testing.T, c *controller, before []queuedReq) (queuedReq, bool) {
	after := map[*request]bool{}
	for _, q := range queuedIn(c) {
		after[q.at] = true
	}
	var issued []queuedReq
	for _, q := range before {
		if !after[q.at] {
			issued = append(issued, q)
		}
	}
	if len(issued) > 1 {
		t.Fatalf("one bus tick issued %d requests from one controller", len(issued))
	}
	if len(issued) == 0 {
		return queuedReq{}, false
	}
	return issued[0], true
}

// checkTiming runs a Memory over a fuzzed stream and holds every data transfer
// it schedules to timingRef. data[0] picks 1-4 cores, and data[1] the queue
// sizes, the write burst and the urgent threshold; then each op is two bytes:
// the first is a read or a write-back, the core, and 0-7 idle bus cycles
// before it; the second a line of timingPool.
func checkTiming(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	p := DefaultParams(1 + int(data[0]%4))
	p.ReadQueueLen = 1 + int(data[1]&3)
	p.WriteQueueLen = 1 + int(data[1]>>2&3)
	p.WriteBatch = 1 + int(data[1]>>4&3)
	p.UrgentThreshold = 1 + uint32(data[1]>>6)
	m := New(p)
	ref := newTimingRef(p)
	br := uint64(p.BusRatio)
	var now uint64
	tick := func() {
		before := make([][]queuedReq, len(m.channels))
		for i, c := range m.channels {
			before[i] = queuedIn(c)
		}
		m.Tick(now)
		for i, c := range m.channels {
			r, ok := issuedBy(t, c, before[i])
			if !ok {
				continue
			}
			end := c.busFreeAt
			if !r.write {
				end = r.future.Cycle() - p.ExtraLatency
			}
			got := end - uint64(p.TBURST)*br
			if want := ref.place(r.loc, r.write, now); got < want {
				t.Fatalf("cycle %d: %+v (write %v) issued, its data starts at %d, the earliest legal start is %d",
					now, r.loc, r.write, got, want)
			}
		}
		now += br
	}
	ops := data[2:]
	for i := 0; i+1 < len(ops) && i < 1024; i += 2 {
		op, line := ops[i], timingPool[int(ops[i+1])%len(timingPool)]
		for gap := op >> 3 & 7; gap > 0; gap-- {
			tick()
		}
		if core := int(op>>1) % p.NumCores; op&1 == 1 {
			m.EnqueueWrite(line, core)
		} else {
			m.EnqueueRead(line, core, Pending())
		}
		tick()
	}
	for limit := now + 1<<20; !m.Idle(); tick() {
		if now > limit {
			t.Fatal("the queues never drained")
		}
	}
}

// timingSeeds are random streams on small queues, so write bursts, urgent
// reads and row conflicts all occur, and one stream in which tRTP decides
// when a precharge may start: a row hit long after its bank's ACTIVATE,
// then at once a read of another row of that bank (pool lines 1 and 2),
// with reads of channel 1 as the wait between.
func timingSeeds() [][]byte {
	seeds := [][]byte{{0, 3, 0, 0, 0x38, 24, 0x38, 24, 0x38, 24, 0x38, 24, 0x38, 24, 0, 1, 0, 2}}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 12; i++ {
		s := make([]byte, 2+2*(64+rng.Intn(192)))
		rng.Read(s)
		seeds = append(seeds, s)
	}
	return seeds
}

// FuzzDRAMTiming holds the controllers' bank and bus timing to timingRef over
// fuzzed reads and write-backs from 1-4 cores.
func FuzzDRAMTiming(f *testing.F) {
	for _, s := range timingSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkTiming)
}

// TestWriteToReadTurnaround holds a read to tWTR after a write on its
// channel. A write to a closed bank at cycle 0 activates it at once, so its
// CAS goes out at tRCD = 44 and its data runs from 44 + tCWL = 76 to
// 76 + tBURST = 92. A read of the same row, enqueued next, finds the row open
// and the bus free at 92, but tWTR holds its CAS until 92 + 24 = 116, so its
// data starts at 116 + tCL = 160.
func TestWriteToReadTurnaround(t *testing.T) {
	p := DefaultParams(1)
	m := New(p)
	br := uint64(p.BusRatio)
	if !m.EnqueueWrite(0, 0) {
		t.Fatal("write rejected")
	}
	m.Tick(0)
	c := m.channels[MapAddress(0).Channel]
	if c.stats.Writes != 1 || c.busFreeAt != 92 {
		t.Fatalf("the write issued %d times and ends its data at %d, want once at 92", c.stats.Writes, c.busFreeAt)
	}
	writeEnd := c.busFreeAt
	fut := Pending()
	if m.EnqueueRead(1, 0, fut) != fut {
		t.Fatal("read rejected")
	}
	for now := br; !fut.Resolved(); now += br {
		m.Tick(now)
	}
	start := fut.Cycle() - p.ExtraLatency - uint64(p.TBURST)*br
	cas := start - uint64(p.TCL)*br
	tWTR := writeEnd + uint64(p.TWTR)*br
	if start != 160 || cas != 116 || tWTR != 116 {
		t.Errorf("the read's data starts at %d (CAS at %d, tWTR allows %d), want 160 (116, 116)", start, cas, tWTR)
	}
}

// TestReadToPrechargeIgnoresBus holds a precharge to tRTP after a read's
// CAS, not after the cycle the CAS could have gone out were the data bus
// free. On channel 0, bank 0 opens row 0 at cycle 0; at cycle 200 reads of
// banks 1-3 fill the bus, a row hit to bank 0 issues at 212 and a read of
// bank 0's row 1 at 216. The row hit's data starts at 336 when the bus frees,
// so its CAS goes out at 336 - tCL = 292 and tRTP allows the precharge at
// 292 + 24 = 316. The conflicting read's data then starts at
// 316 + tRP + tRCD + tCL = 448. Counted from the bus-free CAS cycle (212),
// the precharge would come at 236, before the row hit's CAS.
func TestReadToPrechargeIgnoresBus(t *testing.T) {
	p := DefaultParams(1)
	m := New(p)
	br := uint64(p.BusRatio)
	var now uint64
	read := func(line mem.LineAddr) *Future {
		f := Pending()
		if m.EnqueueRead(line, 0, f) != f {
			t.Fatalf("read of %#x rejected", line)
		}
		return f
	}
	tickTo := func(end uint64) {
		for ; now <= end; now += br {
			m.Tick(now)
		}
	}
	read(lineAt(0, 0, 0, 0))
	tickTo(196)
	for bank := 1; bank < 4; bank++ {
		read(lineAt(0, bank, 0, 0))
	}
	tickTo(208)
	hit := read(lineAt(0, 0, 0, 1))
	tickTo(212)
	conflict := read(lineAt(0, 0, 1, 0))
	for ; !conflict.Resolved(); now += br {
		m.Tick(now)
	}
	start := func(f *Future) uint64 { return f.Cycle() - p.ExtraLatency - uint64(p.TBURST)*br }
	hitCAS := start(hit) - uint64(p.TCL)*br
	pre := start(conflict) - uint64(p.TRP+p.TRCD+p.TCL)*br
	if start(hit) != 336 || hitCAS != 292 || start(conflict) != 448 || pre != 316 {
		t.Errorf("the row hit's data starts at %d (CAS at %d), the conflict's at %d (precharge at %d), want 336 (292), 448 (316)",
			start(hit), hitCAS, start(conflict), pre)
	}
}
