package cache

import (
	"testing"

	"bopsim/internal/mem"
)

// fillSet inserts ways distinct lines mapping to set 0 of c.
func fillSet(c *Cache, start int) []mem.LineAddr {
	var lines []mem.LineAddr
	for i := 0; i < c.Ways(); i++ {
		l := mem.LineAddr((start + i) * c.Sets())
		c.Place(l, InsertInfo{})
		lines = append(lines, l)
	}
	return lines
}

func TestDRRIPHitPromotion(t *testing.T) {
	sets, ways := 64, 4
	d := NewDRRIP(sets, ways, 1)
	c := New("drrip", sets*ways*mem.LineSize, ways, d)
	lines := fillSet(c, 0)
	// Touch line 0 so its RRPV drops to 0; then stream new lines: line 0
	// should outlive its set-mates.
	c.Lookup(lines[0])
	for i := 100; i < 140; i++ {
		l := mem.LineAddr(i * sets)
		c.Place(l, InsertInfo{})
		if c.Peek(lines[0]) != nil {
			c.Lookup(lines[0])
		}
	}
	if c.Peek(lines[0]) == nil {
		t.Error("frequently hit line was evicted under DRRIP")
	}
}

func TestDRRIPVictimAlwaysValid(t *testing.T) {
	sets, ways := 8, 4
	d := NewDRRIP(sets, ways, 3)
	for s := 0; s < sets; s++ {
		for i := 0; i < ways; i++ {
			d.OnInsert(s, i, InsertInfo{})
		}
		v := d.Victim(s)
		if v < 0 || v >= ways {
			t.Fatalf("set %d: victim %d out of range", s, v)
		}
	}
}

func TestFivePLeaderAssignment(t *testing.T) {
	sets, ways := 1024, 16
	p := NewFiveP(sets, ways, 4, 7)
	counts := make([]int, NumInsertionPolicies)
	followers := 0
	for _, l := range p.leader {
		if l < 0 {
			followers++
		} else {
			counts[l]++
		}
	}
	for i, n := range counts {
		if n != sets/p.constituency {
			t.Errorf("policy IP%d has %d leader sets, want %d", i+1, n, sets/p.constituency)
		}
	}
	if followers != sets-NumInsertionPolicies*(sets/p.constituency) {
		t.Errorf("follower count %d unexpected", followers)
	}
}

func TestFivePPrefetchLRUInsertionUnderIP3(t *testing.T) {
	// Force IP3 by making it the minimum counter: charge the other leaders.
	sets, ways := 256, 4
	p := NewFiveP(sets, ways, 1, 7)
	for ip := 0; ip < NumInsertionPolicies; ip++ {
		if ip == 2 {
			continue
		}
		for k := 0; k < 10; k++ {
			p.policySel.Inc(ip)
		}
	}
	if got := p.policySel.MinIndex(); got != 2 {
		t.Fatalf("min policy = IP%d, want IP3", got+1)
	}
	c := New("5p", sets*ways*mem.LineSize, ways, p)
	// Pick a follower set index (leader sets are at multiples of
	// constituency/5 within each 128-set group; index 3 is a follower).
	followerSet := 3
	if p.leader[followerSet] >= 0 {
		t.Fatal("test set is unexpectedly a leader")
	}
	// Fill the follower set with demand blocks, then insert one prefetch:
	// the prefetch must be the next victim (LRU insertion).
	var lines []mem.LineAddr
	for i := 0; i < ways; i++ {
		l := mem.LineAddr(i*sets + followerSet)
		c.Place(l, InsertInfo{})
		lines = append(lines, l)
	}
	for _, l := range lines {
		c.Lookup(l)
	}
	pf := mem.LineAddr(100*sets + followerSet)
	ev, _ := c.Place(pf, InsertInfo{IsPrefetch: true})
	if !ev.Valid() {
		t.Fatal("no eviction from full set")
	}
	next := mem.LineAddr(101*sets + followerSet)
	ev, _ = c.Place(next, InsertInfo{})
	if ev.Addr() != pf {
		t.Errorf("IP3 did not insert prefetch at LRU: evicted %d, want %d", ev.Addr(), pf)
	}
}

// TestFivePBimodalInsertionUnderIP2 checks 5P's bimodal insertion (IP2) in
// one of its leader sets: a scan of one-use blocks goes in at the LRU
// position, so the scan mostly evicts itself, and an active working set that
// is re-referenced only every few scan blocks survives it. MRU insertion
// would let every scan block push a working-set block out.
func TestFivePBimodalInsertionUnderIP2(t *testing.T) {
	const sets, ways = 256, 8
	p := NewFiveP(sets, ways, 1, 42)
	set := -1
	for s, l := range p.leader {
		if l == 1 {
			set = s
			break
		}
	}
	if set < 0 {
		t.Fatal("no IP2 leader set")
	}
	c := New("5p", sets*ways*mem.LineSize, ways, p)
	working := make([]mem.LineAddr, ways/2)
	for i := range working {
		working[i] = mem.LineAddr(i*sets + set)
		c.Place(working[i], InsertInfo{})
	}
	const scan, every = 1000, ways
	var scanEvicts, workingEvicts, hits, refs int
	for i := 0; i < scan; i++ {
		if ev, _ := c.Place(mem.LineAddr((100+i)*sets+set), InsertInfo{}); ev.Valid() {
			if int(ev.Addr())/sets < 100 {
				workingEvicts++
			} else {
				scanEvicts++
			}
		}
		if i%every != every-1 {
			continue
		}
		for _, w := range working {
			refs++
			if c.Lookup(w) != nil {
				hits++
			} else {
				c.Place(w, InsertInfo{})
			}
		}
	}
	if scanEvicts < 9*(scanEvicts+workingEvicts)/10 {
		t.Errorf("the scan evicted %d scan blocks and %d working-set blocks under IP2, want at least 90%% scan", scanEvicts, workingEvicts)
	}
	if hits < 9*refs/10 {
		t.Errorf("the working set hit %d of %d re-references under IP2, want at least 90%%", hits, refs)
	}
}

func TestFivePCoreAwareLowMissRate(t *testing.T) {
	p := NewFiveP(256, 4, 4, 9)
	// Core 1 inserts heavily (cache thrasher); core 0 rarely.
	for i := 0; i < 1000; i++ {
		p.NoteFill(1)
	}
	p.NoteFill(0)
	if !p.lowMissRate(0) {
		t.Error("core 0 should have a low miss rate")
	}
	if p.lowMissRate(1) {
		t.Error("core 1 (thrasher) should not have a low miss rate")
	}
}

func TestFivePDemandLeaderChargesCounter(t *testing.T) {
	sets, ways := 256, 4
	p := NewFiveP(sets, ways, 1, 7)
	// Find the IP1 leader set in the first constituency.
	leaderSet := -1
	for s, l := range p.leader {
		if l == 0 {
			leaderSet = s
			break
		}
	}
	before := p.policySel.Value(0)
	p.OnInsert(leaderSet, 0, InsertInfo{})
	if p.policySel.Value(0) != before+1 {
		t.Error("demand insert into IP1 leader set did not charge counter")
	}
	before = p.policySel.Value(0)
	p.OnInsert(leaderSet, 1, InsertInfo{IsPrefetch: true})
	if p.policySel.Value(0) != before {
		t.Error("prefetch insert into leader set wrongly charged counter")
	}
}

func TestPropCountersHalving(t *testing.T) {
	p := NewPropCounters(3, 4) // max 15
	for i := 0; i < 10; i++ {
		p.Inc(0)
	}
	p.Inc(1)
	for i := 0; i < 10; i++ {
		p.Inc(0) // crosses 15 -> all halve
	}
	if p.Value(0) >= 15 {
		t.Errorf("counter 0 = %d, expected halving below max", p.Value(0))
	}
	if p.Value(1) > 1 {
		t.Errorf("counter 1 = %d, expected halved", p.Value(1))
	}
	if p.Value(0) <= p.Value(1) {
		t.Error("halving destroyed counter ordering")
	}
}

func TestPropCountersMinIndex(t *testing.T) {
	p := NewPropCounters(4, 12)
	p.Inc(0)
	p.Inc(1)
	p.Inc(3)
	if got := p.MinIndex(); got != 2 {
		t.Errorf("MinIndex = %d, want 2", got)
	}
}

func TestLRUStateTouchLRUAtZero(t *testing.T) {
	s := newLRUState(1, 2)
	// All stamps zero: touchLRU must not underflow.
	s.touchLRU(0, 1)
	if s.stamps[1] != 0 {
		t.Errorf("stamp = %d, want 0", s.stamps[1])
	}
}
