package uncore

import "bopsim/internal/mem"

// outstandingInfo is one in-flight DL1 miss, and the only record of it: the
// register Demand or strideQuery takes for the line and insertDL1 takes back
// when the block fills the DL1. The register is one holder of done.
type outstandingInfo struct {
	done *Completion
	// markWrite is set by a store that missed on the line, the one that took
	// the register or any merged onto it: the DL1 copy is dirty on fill.
	markWrite bool
	// l1pf is set when a DL1 stride prefetch took the register: the DL1 copy
	// gets its prefetch bit on fill.
	l1pf bool
}

// mshrs is one core's DL1 miss registers: a fixed table of Config.MSHRs
// lines, packed at the front of lines, with each line's info at the same
// index of infos. Lookup is a linear scan. Nothing ever iterates the
// registers, so their order is unobservable and take moves the last entry
// into the hole. CanAccept refuses a miss once every register is taken, so
// the table never grows past the capacity it is built with.
type mshrs struct {
	lines []mem.LineAddr
	infos []outstandingInfo
}

func newMSHRs(n int) mshrs {
	return mshrs{lines: make([]mem.LineAddr, 0, n), infos: make([]outstandingInfo, 0, n)}
}

// find returns the index of line's register, or -1 when line has none.
func (m *mshrs) find(line mem.LineAddr) int {
	for i, l := range m.lines {
		if l == line {
			return i
		}
	}
	return -1
}

// add takes a free register for line, which must not already hold one.
func (m *mshrs) add(line mem.LineAddr, info outstandingInfo) {
	m.lines = append(m.lines, line)
	m.infos = append(m.infos, info)
}

// resolve sets the completion cycle of line's register, which must exist.
func (m *mshrs) resolve(line mem.LineAddr, cycle uint64) {
	m.infos[m.find(line)].done.resolve(cycle)
}

// take releases line's register, which must exist, and returns it: the
// caller takes over the register's hold on the completion.
func (m *mshrs) take(line mem.LineAddr) outstandingInfo {
	i := m.find(line)
	info := m.infos[i]
	last := len(m.lines) - 1
	m.lines[i], m.infos[i] = m.lines[last], m.infos[last]
	m.infos[last] = outstandingInfo{} // no stale completion behind the length
	m.lines, m.infos = m.lines[:last], m.infos[:last]
	return info
}

func (m *mshrs) len() int { return len(m.lines) }
