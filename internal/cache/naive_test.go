package cache

import (
	"testing"
	"unsafe"

	"bopsim/internal/mem"
)

// TestLineIsOneWord pins what the packing buys: a line array costs 8 bytes
// a line.
func TestLineIsOneWord(t *testing.T) {
	if size := unsafe.Sizeof(Line(0)); size != 8 {
		t.Fatalf("cache.Line is %d bytes, want 8", size)
	}
}

// naiveLine is one resident line of the reference model, one field each.
type naiveLine struct {
	addr            mem.LineAddr
	dirty, prefetch bool
	core            int
}

// naiveCache models a cache as one slice of resident lines per set, least
// recently used first. Under LRU it predicts every victim; under 5P it
// accepts the policy's choice of victim and checks only what was evicted.
type naiveCache struct {
	sets [][]naiveLine
	lru  bool
}

func (m *naiveCache) find(l mem.LineAddr) (set, i int) {
	set = int(uint64(l) % uint64(len(m.sets)))
	for i, ln := range m.sets[set] {
		if ln.addr == l {
			return set, i
		}
	}
	return set, -1
}

// take removes entry i of set and returns it.
func (m *naiveCache) take(set, i int) naiveLine {
	ln := m.sets[set][i]
	m.sets[set] = append(m.sets[set][:i], m.sets[set][i+1:]...)
	return ln
}

// fuzzAddrMask is the physical line-address width, written out rather than
// taken from the package so that a narrower packing still draws full-width
// addresses.
const fuzzAddrMask = 1<<34 - 1

// FuzzCacheAgainstNaive drives Place, Lookup, Peek, Invalidate, SetDirty
// and ClearPrefetch under LRU and 5P with full-width line addresses and
// cores 0–3, and checks every line a probe returns and every eviction —
// address, valid, dirty, prefetch and core — against the naive model. Place
// is driven on present and absent lines alike: the model predicts whether it
// places, what it evicts, and that a present line only takes the dirty bit
// (under LRU a moved recency shows as a wrong victim later).
//
// Input: policy (even LRU, odd 5P), seed (the 16 addresses and 5P's random
// stream) and ops, two bytes per operation: b0%6 the operation, b0>>3&3 the
// core, b0>>5&1 the prefetch flag and b0>>6&1 the dirty flag of a placement;
// b1%16 the address.
func FuzzCacheAgainstNaive(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{0, 0, 0x28, 4, 0x30, 8, 1, 0, 3, 4, 4, 8, 0x38, 12, 2, 0, 5, 4, 0, 1, 1, 4, 3, 12})
	f.Add(uint8(1), uint64(7), []byte{0x20, 0, 0x28, 4, 0x30, 8, 0x38, 12, 3, 0, 0, 1, 1, 4, 4, 8, 5, 12, 2, 4, 0x18, 5, 3, 5})
	f.Add(uint8(0), uint64(0), []byte{0x20, 1, 3, 1, 0x08, 2, 0x10, 3, 4, 2, 0x18, 5, 0x20, 9, 0, 13, 1, 1, 2, 2, 5, 1})
	f.Add(uint8(1), uint64(42), []byte{0, 0, 0, 4, 0, 8, 0, 12, 0x20, 1, 0x28, 5, 0x30, 9, 0x38, 13, 4, 0, 3, 4, 2, 8, 1, 12})
	// Dirty placements, fresh and onto present lines, and a clean placement
	// onto a dirty line; then, under LRU, placements into a full set whose
	// victims depend on the re-placed line keeping its recency.
	f.Add(uint8(0), uint64(3), []byte{0x42, 0, 0x48, 4, 0, 0, 0x60, 4, 2, 0, 2, 4, 0x78, 8, 0, 8, 0x72, 12, 1, 4, 0x42, 0, 0, 4, 0x48, 12, 2, 12, 1, 0, 1, 8})
	f.Add(uint8(0), uint64(9), []byte{0x20, 0, 0, 4, 0x42, 0, 0x08, 8, 0x48, 4, 0x10, 12, 0x60, 1, 0x78, 5, 0, 9, 0x72, 13, 2, 4, 2, 12})
	f.Fuzz(func(t *testing.T, policy uint8, seed uint64, ops []byte) {
		const sets, ways = 4, 2
		var p Policy = NewLRU(sets, ways)
		if policy%2 == 1 {
			p = NewFiveP(sets, ways, 4, seed)
		}
		c := New("fuzz", sets*ways*mem.LineSize, ways, p)
		defer c.Close()
		m := &naiveCache{sets: make([][]naiveLine, sets), lru: policy%2 == 0}

		var addrs [16]mem.LineAddr
		for i := range addrs {
			addrs[i] = mem.LineAddr(mem.Mix64(seed+uint64(i)) & fuzzAddrMask)
		}
		// The top of the range and a pair that differs only above bit 31
		// are always drawn.
		addrs[0] = fuzzAddrMask
		addrs[1] = fuzzAddrMask - 1<<32

		same := func(op string, got Line, want naiveLine) {
			t.Helper()
			if !got.Valid() || got.Addr() != want.addr || got.Dirty() != want.dirty ||
				got.Prefetch() != want.prefetch || got.Core() != want.core {
				t.Fatalf("%s: line {valid %t addr %#x dirty %t prefetch %t core %d}, model %+v",
					op, got.Valid(), got.Addr(), got.Dirty(), got.Prefetch(), got.Core(), want)
			}
		}
		// probe checks a returned line against the model's record of l.
		probe := func(op string, ln *Line, l mem.LineAddr) {
			t.Helper()
			set, i := m.find(l)
			switch {
			case i < 0 && ln != nil:
				t.Fatalf("%s(%#x): hit a line the model does not hold", op, l)
			case i >= 0 && ln == nil:
				t.Fatalf("%s(%#x): missed a line the model holds", op, l)
			case i >= 0:
				same(op, *ln, m.sets[set][i])
			}
		}

		for k := 0; k+1 < len(ops); k += 2 {
			b0 := ops[k]
			l := addrs[ops[k+1]%16]
			core := int(b0 >> 3 & 3)
			set, i := m.find(l)
			switch b0 % 6 {
			case 0:
				pf, dirty := b0>>5&1 == 1, b0>>6&1 == 1
				ev, placed := c.Place(l, InsertInfo{Core: core, IsPrefetch: pf, Dirty: dirty})
				if placed != (i < 0) {
					t.Fatalf("Place(%#x) placed %t, model holds it: %t", l, placed, i >= 0)
				}
				switch {
				case i >= 0:
					if ev != 0 {
						t.Fatalf("Place(%#x) of a present line evicted %#x", l, uint64(ev))
					}
					m.sets[set][i].dirty = m.sets[set][i].dirty || dirty
					continue
				case len(m.sets[set]) < ways:
					if ev != 0 {
						t.Fatalf("Place(%#x) into a set with a free way evicted %#x", l, uint64(ev))
					}
				case m.lru:
					same("Place's eviction", ev, m.take(set, 0))
				default:
					if !ev.Valid() {
						t.Fatalf("Place(%#x) into a full set evicted nothing", l)
					}
					_, j := m.find(ev.Addr())
					if j < 0 {
						t.Fatalf("Place(%#x) evicted %#x, which the set does not hold", l, ev.Addr())
					}
					same("Place's eviction", ev, m.take(set, j))
				}
				m.sets[set] = append(m.sets[set], naiveLine{addr: l, dirty: dirty, prefetch: pf, core: core})
			case 1:
				probe("Lookup", c.Lookup(l), l)
				if i >= 0 && m.lru {
					m.sets[set] = append(m.sets[set], m.take(set, i))
				}
			case 2:
				probe("Peek", c.Peek(l), l)
			case 3:
				old, ok := c.Invalidate(l)
				if ok != (i >= 0) {
					t.Fatalf("Invalidate(%#x) reported %t, model holds it: %t", l, ok, i >= 0)
				}
				if ok {
					same("Invalidate", old, m.take(set, i))
				}
				if c.Peek(l) != nil {
					t.Fatalf("line %#x survived Invalidate", l)
				}
			case 4:
				if ln := c.Peek(l); ln != nil {
					ln.SetDirty()
				}
				if i >= 0 {
					m.sets[set][i].dirty = true
				}
			case 5:
				if ln := c.Peek(l); ln != nil {
					ln.ClearPrefetch()
				}
				if i >= 0 {
					m.sets[set][i].prefetch = false
				}
			}
		}
		held := 0
		for _, ln := range c.lines {
			if ln.Valid() {
				held++
			}
		}
		for _, lines := range m.sets {
			held -= len(lines)
			for _, want := range lines {
				probe("final Peek", c.Peek(want.addr), want.addr)
			}
		}
		if held != 0 {
			t.Fatalf("cache holds %+d lines more than the model", held)
		}
	})
}
