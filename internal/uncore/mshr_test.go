package uncore

import (
	"math/rand"
	"testing"

	"bopsim/internal/mem"
)

// TestMSHRsAgainstMap drives the MSHR table and the map it replaced with one
// random stream of the operations Hierarchy makes: add a line without a
// register while one is free (Demand, strideQuery), merge a store onto a
// found register (Demand), remove a line with or without one (insertDL1).
// After every step find must agree with the map for every line
// of the universe, len with the map's length and with the completions still
// live (a register holds one, and remove lets it go), and the table must
// still fit the capacity it was built with.
func TestMSHRsAgainstMap(t *testing.T) {
	for _, n := range []int{1, 2, 3, DefaultConfig(1, mem.Page4K).MSHRs} {
		rng := rand.New(rand.NewSource(int64(n)))
		m := newMSHRs(n)
		oracle := make(map[mem.LineAddr]outstandingInfo)
		var comps completionPool
		universe := 2*n + 3
		for step := 0; step < 3000+300*n; step++ {
			line := mem.LineAddr(rng.Intn(universe))
			_, held := oracle[line]
			switch op := rng.Intn(8); {
			case op < 4: // a miss: merge onto the register, or take a free one
				if held {
					i := m.find(line)
					m.infos[i].markWrite = true
					info := oracle[line]
					info.markWrite = true
					oracle[line] = info
				} else if m.len() < n {
					info := outstandingInfo{done: comps.get(1), markWrite: rng.Intn(2) == 0}
					m.add(line, info)
					oracle[line] = info
				}
			case op < 7: // a fill releases the line, which may hold no register
				m.remove(line, &comps)
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
				if found && m.infos[i] != want {
					t.Fatalf("%d registers, step %d: line %d has info %+v, the map %+v", n, step, l, m.infos[i], want)
				}
			}
		}
	}
}
