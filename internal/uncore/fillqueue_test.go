package uncore

import (
	"testing"

	"bopsim/internal/mem"
)

// naiveFill is the plain model's record of one fill-queue entry.
type naiveFill struct {
	e       *fillEntry
	line    mem.LineAddr
	readyAt uint64
}

// FuzzFillQueueAgainstNaive is differential: a fill queue, its CAM behind
// the line filter, against a plain slice searched in full. Each pair of op
// bytes is a push, an arrive, a popReady or a find over a universe of 16
// lines, eight of which share their filter bit with one of the other eight,
// so a set bit is not always the line asked about. After every step every
// line's find must name the entry the model finds first, and len, full and
// minKnown must match.
func FuzzFillQueueAgainstNaive(f *testing.F) {
	f.Add(uint8(3), uint64(1), []byte{0, 0, 0x10, 8, 1, 0, 2, 0, 3, 8, 2, 2, 0, 1})
	f.Add(uint8(2), uint64(7), []byte{0, 0, 0, 8, 0x10, 0, 2, 1, 1, 0, 2, 3, 3, 8, 0, 8, 2, 4})
	f.Add(uint8(7), uint64(42), []byte{0, 1, 0, 9, 0x10, 2, 0, 10, 1, 1, 2, 0, 1, 9, 2, 5, 3, 9, 3, 1, 0, 1, 2, 7})
	f.Fuzz(func(t *testing.T, capacity uint8, seed uint64, ops []byte) {
		q := newFillQueue(1 + int(capacity%8))
		var model []naiveFill
		var lines [16]mem.LineAddr
		for i := range 8 {
			lines[i] = mem.LineAddr(mem.Mix64(seed+uint64(i)) >> 8)
			// A second line with the same filter bit: the search from the
			// line's neighbours ends within a few hundred steps.
			other := lines[i] + 1
			for filterBit(other) != filterBit(lines[i]) {
				other++
			}
			lines[8+i] = other
		}
		modelFind := func(l mem.LineAddr) *fillEntry {
			for _, m := range model {
				if m.line == l {
					return m.e
				}
			}
			return nil
		}
		var now uint64
		for k := 0; k+1 < len(ops); k += 2 {
			op, arg := ops[k], ops[k+1]
			l := lines[arg%16]
			at := now + uint64(arg>>4)
			switch op % 4 {
			case 0: // push, arrival known (an L3 hit) or not (a DRAM read)
				if q.full() {
					continue
				}
				e := &fillEntry{line: l, readyAt: never}
				if op&0x10 != 0 {
					e.readyAt = at
				}
				q.push(e)
				model = append(model, naiveFill{e, l, e.readyAt})
			case 1: // the line's read is issued and arrives at at
				q.arrive(l, at)
				for i := range model {
					if model[i].line == l && model[i].readyAt == never {
						model[i].readyAt = at
					}
				}
			case 2: // the clock moves on and the ready entries drain
				now += uint64(arg % 8)
				got := q.popReady(now)
				kept := model[:0]
				var want []*fillEntry
				for _, m := range model {
					if m.readyAt <= now {
						want = append(want, m.e)
					} else {
						kept = append(kept, m)
					}
				}
				model = kept
				if len(got) != len(want) {
					t.Fatalf("step %d: popReady(%d) returned %d entries, model %d", k/2, now, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("step %d: popReady(%d) entry %d is line %#x, model line %#x", k/2, now, i, got[i].line, want[i].line)
					}
				}
			case 3:
				if got, want := q.find(l), modelFind(l); got != want {
					t.Fatalf("step %d: find(%#x) = %p, model %p", k/2, l, got, want)
				}
			}
			minKnown := never
			for _, m := range model {
				minKnown = min(minKnown, m.readyAt)
			}
			if q.len() != len(model) || q.full() != (len(model) == q.cap) || q.minKnown != minKnown {
				t.Fatalf("step %d: len %d full %v minKnown %d, model len %d of %d minKnown %d",
					k/2, q.len(), q.full(), q.minKnown, len(model), q.cap, minKnown)
			}
			for _, l := range lines {
				if got, want := q.find(l), modelFind(l); got != want {
					t.Fatalf("step %d: find(%#x) = %p, model %p", k/2, l, got, want)
				}
			}
		}
	})
}
