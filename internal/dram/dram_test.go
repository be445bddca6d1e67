package dram

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bopsim/internal/mem"
)

// run advances memory until fut resolves or the cycle budget is exhausted,
// returning the resolution cycle.
func run(t *testing.T, m *Memory, fut *Future, budget uint64) uint64 {
	t.Helper()
	for now := uint64(0); now < budget; now++ {
		m.Tick(now)
		if fut.Resolved() {
			return fut.Cycle()
		}
	}
	t.Fatalf("future unresolved after %d cycles", budget)
	return 0
}

// doneBy reports whether f's read has completed at or before now.
func doneBy(f *Future, now uint64) bool { return f.Resolved() && f.Cycle() <= now }

func TestMapAddressInRange(t *testing.T) {
	f := func(a uint64) bool {
		loc := MapAddress(mem.LineAddr(a % (1 << 34)))
		return loc.Channel >= 0 && loc.Channel < 2 && loc.Bank >= 0 && loc.Bank < 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapAddressSpreadsChannels(t *testing.T) {
	// A long sequential stream must use both channels and several banks.
	chans := map[int]int{}
	banks := map[int]bool{}
	for l := mem.LineAddr(0); l < 4096; l++ {
		loc := MapAddress(l)
		chans[loc.Channel]++
		banks[loc.Bank] = true
	}
	if len(chans) != 2 {
		t.Fatalf("sequential stream used %d channels, want 2", len(chans))
	}
	if ratio := float64(chans[0]) / float64(chans[1]); ratio < 0.5 || ratio > 2 {
		t.Errorf("channel imbalance: %v", chans)
	}
	if len(banks) < 4 {
		t.Errorf("sequential stream used only %d banks", len(banks))
	}
}

func TestSameRowConsecutiveLines(t *testing.T) {
	// Lines differing only in the row-offset bits must map to the same row.
	a := MapAddress(0)
	b := MapAddress(1) // differs in a6
	if a.Row != b.Row {
		t.Errorf("adjacent lines in different rows: %d vs %d", a.Row, b.Row)
	}
}

func TestSingleReadLatency(t *testing.T) {
	p := DefaultParams(1)
	m := New(p)
	fut := Pending()
	if got := m.EnqueueRead(0, 0, fut); got != fut {
		t.Fatal("enqueue did not accept request")
	}
	done := run(t, m, fut, 10000)
	// Closed bank: tRCD + tCL + tBURST bus cycles in core cycles, plus the
	// fixed round-trip overhead.
	min := uint64((p.TRCD+p.TCL+p.TBURST)*p.BusRatio) + p.ExtraLatency
	if done < min {
		t.Errorf("read completed at %d, faster than DRAM timing allows (%d)", done, min)
	}
	if done > min+uint64(2*p.BusRatio) {
		t.Errorf("idle-system read took %d cycles, want about %d", done, min)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	p := DefaultParams(1)

	// Same row twice.
	m1 := New(p)
	f1 := Pending()
	m1.EnqueueRead(0, 0, f1)
	run(t, m1, f1, 10000)
	f2 := Pending()
	start := f1.Cycle()
	m1.EnqueueRead(1, 0, f2) // same row (adjacent line)
	var hitLat uint64
	for now := start; ; now++ {
		m1.Tick(now)
		if f2.Resolved() {
			hitLat = f2.Cycle() - start
			break
		}
	}

	// Same bank, different row -> conflict.
	m2 := New(p)
	g1 := Pending()
	m2.EnqueueRead(0, 0, g1)
	run(t, m2, g1, 10000)
	start = g1.Cycle()
	// Find a line in the same bank+channel but another row.
	base := MapAddress(0)
	var conflictLine mem.LineAddr
	for l := mem.LineAddr(1); ; l++ {
		loc := MapAddress(l)
		if loc.Channel == base.Channel && loc.Bank == base.Bank && loc.Row != base.Row {
			conflictLine = l
			break
		}
	}
	g2 := Pending()
	m2.EnqueueRead(conflictLine, 0, g2)
	var confLat uint64
	for now := start; ; now++ {
		m2.Tick(now)
		if g2.Resolved() {
			confLat = g2.Cycle() - start
			break
		}
	}
	if hitLat >= confLat {
		t.Errorf("row hit (%d cycles) not faster than row conflict (%d)", hitLat, confLat)
	}
}

// TestSameLineReadsAreTwoRequests is the controller's side of the contract
// that the uncore's L3 fill queue is the one place in-flight reads are
// deduplicated: a second read of a line already queued is a request of its
// own, with its own future and its own DRAM access.
func TestSameLineReadsAreTwoRequests(t *testing.T) {
	m := New(DefaultParams(1))
	f1, f2 := Pending(), Pending()
	if m.EnqueueRead(42, 0, f1) != f1 || m.EnqueueRead(42, 0, f2) != f2 {
		t.Fatal("an enqueue did not return its own future")
	}
	for now := uint64(0); now < 10000 && !m.Idle(); now++ {
		m.Tick(now)
	}
	if !f1.Resolved() || !f2.Resolved() || f1.Cycle() >= f2.Cycle() {
		t.Errorf("futures resolved %v at %d and %v at %d, want both, the second later", f1.Resolved(), f1.Cycle(), f2.Resolved(), f2.Cycle())
	}
	if s := m.TotalStats(); s.Reads != 2 {
		t.Errorf("Reads = %d, want 2", s.Reads)
	}
}

func TestReadQueueFull(t *testing.T) {
	p := DefaultParams(1)
	p.ReadQueueLen = 2
	m := New(p)
	// Fill channel 0's queue with distinct lines on the same channel.
	ch0 := []mem.LineAddr{}
	for l := mem.LineAddr(0); len(ch0) < 3; l++ {
		if MapAddress(l).Channel == 0 {
			ch0 = append(ch0, l)
		}
	}
	if m.EnqueueRead(ch0[0], 0, Pending()) == nil {
		t.Fatal("queue rejected first request")
	}
	if m.EnqueueRead(ch0[1], 0, Pending()) == nil {
		t.Fatal("queue rejected second request")
	}
	if m.EnqueueRead(ch0[2], 0, Pending()) != nil {
		t.Error("queue accepted request beyond capacity")
	}
}

// TestReadBlockedMirrorsEnqueueRead holds the read-only probe to the
// operation it predicts: over random two-core traffic on tiny queues,
// ReadBlocked must say exactly whether the EnqueueRead that follows is
// refused, and must itself change nothing.
func TestReadBlockedMirrorsEnqueueRead(t *testing.T) {
	p := DefaultParams(2)
	p.ReadQueueLen = 2
	m := New(p)
	rng := rand.New(rand.NewSource(1))
	var refused, accepted int
	for now := uint64(0); now < 40_000; now++ {
		if rng.Intn(3) > 0 {
			line, core := mem.LineAddr(rng.Intn(48)*37), rng.Intn(2)
			before := m.TotalStats()
			blocked := m.ReadBlocked(line, core)
			if after := m.TotalStats(); !reflect.DeepEqual(before, after) {
				t.Fatalf("cycle %d: ReadBlocked changed the statistics: %+v -> %+v", now, before, after)
			}
			got := m.EnqueueRead(line, core, Pending())
			if blocked != (got == nil) {
				t.Fatalf("cycle %d: ReadBlocked(%#x, %d) = %v but EnqueueRead returned %v", now, line, core, blocked, got)
			}
			if got == nil {
				refused++
			} else {
				accepted++
			}
		}
		m.Tick(now)
	}
	if refused == 0 || accepted == 0 {
		t.Errorf("traffic too tame to test the probe: %d refused, %d accepted", refused, accepted)
	}
}

// TestReadVersionCoversReadBlocked is the property refusal memos rest on:
// between any two moments with equal ReadVersion, no ReadBlocked answer has
// changed. Random reads (refused ones included) and writes arrive while the
// controllers tick; after every step the whole probe set is re-evaluated and
// may differ from the last evaluation only if the version moved. It must
// also have moved at least once each way: by an enqueue and by an issue.
func TestReadVersionCoversReadBlocked(t *testing.T) {
	p := DefaultParams(2)
	p.ReadQueueLen = 2
	m := New(p)
	rng := rand.New(rand.NewSource(3))
	type probe struct {
		line mem.LineAddr
		core int
	}
	var probes []probe
	for i := 0; i < 48; i++ {
		probes = append(probes, probe{mem.LineAddr(i * 37), 0}, probe{mem.LineAddr(i * 37), 1})
	}
	answers := func() []bool {
		out := make([]bool, len(probes))
		for i, pr := range probes {
			out[i] = m.ReadBlocked(pr.line, pr.core)
		}
		return out
	}
	last, lastVersion := answers(), m.ReadVersion()
	check := func(now uint64, what string) (moved bool) {
		t.Helper()
		got, version := answers(), m.ReadVersion()
		if version == lastVersion && !reflect.DeepEqual(got, last) {
			t.Fatalf("cycle %d: a ReadBlocked answer changed across %s with ReadVersion standing at %d", now, what, version)
		}
		moved = version != lastVersion
		last, lastVersion = got, version
		return moved
	}
	var byEnqueue, byIssue, changedAnswers int
	for now := uint64(0); now < 40_000; now++ {
		if rng.Intn(3) > 0 {
			m.EnqueueRead(mem.LineAddr(rng.Intn(48)*37), rng.Intn(2), Pending())
			before := last
			if check(now, "an EnqueueRead") {
				byEnqueue++
				if !reflect.DeepEqual(before, last) {
					changedAnswers++
				}
			}
		}
		if rng.Intn(5) == 0 {
			m.EnqueueWrite(mem.LineAddr(rng.Intn(48)*41), rng.Intn(2))
			check(now, "an EnqueueWrite")
		}
		m.Tick(now)
		if check(now, "a Tick") {
			byIssue++
		}
	}
	if byEnqueue == 0 || byIssue == 0 || changedAnswers == 0 {
		t.Errorf("traffic too tame: the version moved on %d enqueues (%d changing an answer) and %d ticks", byEnqueue, changedAnswers, byIssue)
	}
}

func TestWritesAreCounted(t *testing.T) {
	m := New(DefaultParams(1))
	if !m.EnqueueWrite(7, 0) {
		t.Fatal("write rejected")
	}
	for now := uint64(0); now < 100000 && !m.Idle(); now++ {
		m.Tick(now)
	}
	s := m.TotalStats()
	if s.Writes != 1 {
		t.Errorf("Writes = %d, want 1", s.Writes)
	}
	if s.Reads != 0 {
		t.Errorf("Reads = %d, want 0", s.Reads)
	}
}

func TestFairnessUnderAsymmetricLoad(t *testing.T) {
	// Core 1 floods the memory system; core 0 issues occasional reads. The
	// urgent mode plus proportional counters must keep core 0's reads from
	// starving: its latency should stay within a small multiple of the
	// unloaded latency.
	p := DefaultParams(2)
	m := New(p)
	var core0Done []uint64
	var issued uint64
	next := mem.LineAddr(1 << 20)
	var pending []*Future

	var core0Fut *Future
	var core0Start uint64
	for now := uint64(0); now < 200000; now++ {
		// Core 1: keep ~16 requests in flight.
		live := 0
		for _, f := range pending {
			if !doneBy(f, now) {
				live++
			}
		}
		for live < 16 {
			f := Pending()
			if m.EnqueueRead(next, 1, f) != nil {
				pending = append(pending, f)
				next += 97 // scatter across rows
				live++
			} else {
				break
			}
		}
		// Core 0: one read every 2000 cycles.
		if core0Fut == nil && now%2000 == 0 {
			f := Pending()
			if m.EnqueueRead(mem.LineAddr(issued*1024), 0, f) != nil {
				core0Fut = f
				core0Start = now
				issued++
			}
		}
		if core0Fut != nil && doneBy(core0Fut, now) {
			core0Done = append(core0Done, now-core0Start)
			core0Fut = nil
		}
		m.Tick(now)
	}
	if len(core0Done) < 10 {
		t.Fatalf("core 0 completed only %d reads", len(core0Done))
	}
	var sum uint64
	for _, d := range core0Done {
		sum += d
	}
	avg := sum / uint64(len(core0Done))
	if avg > 2500 {
		t.Errorf("core 0 average latency %d cycles under load: starving", avg)
	}
}

func TestUrgentModeFires(t *testing.T) {
	p := DefaultParams(2)
	m := New(p)
	// Give core 1 a huge served history, then have both cores request.
	next := mem.LineAddr(0)
	for now := uint64(0); now < 100000; now++ {
		f := Pending()
		m.EnqueueRead(next, 1, f)
		next += 131
		if now%10 == 0 {
			m.EnqueueRead(mem.LineAddr(1<<25)+next, 0, Pending())
		}
		m.Tick(now)
	}
	if s := m.TotalStats(); s.UrgentReads == 0 {
		t.Error("urgent mode never fired under heavy asymmetry")
	}
}

func TestStreamBandwidthBounded(t *testing.T) {
	// A saturating sequential stream cannot exceed one line per tBURST per
	// channel.
	p := DefaultParams(1)
	m := New(p)
	const n = 512
	futures := make([]*Future, 0, n)
	next := mem.LineAddr(0)
	now := uint64(0)
	for len(futures) < n {
		f := Pending()
		if m.EnqueueRead(next, 0, f) != nil {
			futures = append(futures, f)
			next++
		}
		m.Tick(now)
		now++
	}
	for !m.Idle() {
		m.Tick(now)
		now++
	}
	var last uint64
	for _, f := range futures {
		if !f.Resolved() {
			t.Fatal("unresolved stream read")
		}
		if f.Cycle() > last {
			last = f.Cycle()
		}
	}
	minCycles := uint64(n) * uint64(p.TBURST*p.BusRatio) / uint64(p.Channels)
	if last < minCycles {
		t.Errorf("stream of %d lines finished in %d cycles; bus bound is %d", n, last, minCycles)
	}
}
