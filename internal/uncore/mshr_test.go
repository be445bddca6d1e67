package uncore

import (
	"math/rand"
	"testing"

	"bopsim/internal/mem"
)

// mshrModel is the map's record of one register: the info take must hand
// back, and the cycle its completion was resolved at, if it was.
type mshrModel struct {
	info       outstandingInfo
	resolved   bool
	resolvedAt uint64
}

// FuzzMSHRsAgainstMap drives the MSHR table and a map with one stream of the
// operations Hierarchy makes on it. Each pair of op bytes is an operation and
// a line of a universe of 2n+3 for n registers: a load or a store miss that
// merges onto the line's register or takes a free one (Demand), a DL1 stride
// prefetch that takes a free one unless the line holds one (strideQuery), an
// L2 hit that resolves a held line's completion (processL2Request), or a DL1
// fill that takes a held line's register back (insertDL1). take must hand
// back the register the map holds: markWrite set by the store that took it or
// any store merged onto it, l1pf kept from the stride prefetch that took it,
// the completion resolved at the hit's cycle or not at all. After every step
// find must agree with the map for every line of the universe, len with the
// map's length and with the completions still live (a register holds one,
// and take hands it back), and the table must still fit the capacity it was
// built with.
func FuzzMSHRsAgainstMap(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 2, 1, 4, 0, 5, 0, 3, 1, 5, 1, 5, 2})
	f.Add(uint8(1), []byte{3, 0, 2, 0, 0, 1, 4, 0, 2, 1, 2, 2, 5, 0, 6, 1, 4, 2, 7, 2})
	for _, n := range []int{1, 2, 3, DefaultConfig(1, mem.Page4K).MSHRs} {
		rng := rand.New(rand.NewSource(int64(n)))
		ops := make([]byte, 2*(1000+100*n))
		rng.Read(ops)
		f.Add(uint8(n-1), ops)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		n := 1 + int(capacity)%DefaultConfig(1, mem.Page4K).MSHRs
		m := newMSHRs(n)
		oracle := make(map[mem.LineAddr]mshrModel)
		var comps completionPool
		universe := 2*n + 3
		for k := 0; k+1 < len(ops); k += 2 {
			step, line := k/2, mem.LineAddr(int(ops[k+1])%universe)
			model, held := oracle[line]
			switch op := ops[k] % 8; {
			case op < 3: // a load (0, 1) or a store (2) misses the DL1
				store := op == 2
				if held {
					if store {
						m.infos[m.find(line)].markWrite = true
						model.info.markWrite = true
						oracle[line] = model
					}
				} else if m.len() < n {
					info := outstandingInfo{done: comps.get(1), markWrite: store}
					m.add(line, info)
					oracle[line] = mshrModel{info: info}
				}
			case op == 3: // a DL1 stride prefetch
				if !held && m.len() < n {
					info := outstandingInfo{done: comps.get(1), l1pf: true}
					m.add(line, info)
					oracle[line] = mshrModel{info: info}
				}
			case op == 4: // the line's request hits the L2
				if held && !model.resolved {
					m.resolve(line, uint64(step))
					model.resolved, model.resolvedAt = true, uint64(step)
					oracle[line] = model
				}
			default: // the line fills the DL1
				if !held {
					continue
				}
				got := m.take(line)
				if got != model.info {
					t.Fatalf("%d registers, step %d: take(%d) = %+v, the map holds %+v", n, step, line, got, model.info)
				}
				if c := got.done; c.Resolved() != model.resolved || model.resolved && c.Cycle() != model.resolvedAt {
					t.Fatalf("%d registers, step %d: line %d's completion resolved %v at %d, the map %v at %d",
						n, step, line, c.Resolved(), c.Cycle(), model.resolved, model.resolvedAt)
				}
				comps.release(got.done)
				delete(oracle, line)
			}
			if m.len() != len(oracle) || comps.live != len(oracle) {
				t.Fatalf("%d registers, step %d: len = %d with %d completions live, the map holds %d", n, step, m.len(), comps.live, len(oracle))
			}
			if cap(m.lines) > n || cap(m.infos) > n {
				t.Fatalf("%d registers, step %d: the table grew to capacity %d/%d", n, step, cap(m.lines), cap(m.infos))
			}
			for l := mem.LineAddr(0); l < mem.LineAddr(universe); l++ {
				want, found := oracle[l]
				i := m.find(l)
				if (i >= 0) != found {
					t.Fatalf("%d registers, step %d: find(%d) = %d, the map holds it = %v", n, step, l, i, found)
				}
				if found && m.infos[i] != want.info {
					t.Fatalf("%d registers, step %d: line %d has info %+v, the map %+v", n, step, l, m.infos[i], want.info)
				}
			}
		}
	})
}
