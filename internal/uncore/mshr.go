package uncore

import "bopsim/internal/mem"

// outstandingInfo tracks one in-flight DL1 miss for MSHR-style merging. The
// register is one holder of done.
type outstandingInfo struct {
	done      *Completion
	markWrite bool
}

// mshrs is one core's DL1 miss registers: a fixed table of Config.MSHRs
// lines, packed at the front of lines, with each line's info at the same
// index of infos. Lookup is a linear scan. Nothing ever iterates the
// registers, so their order is unobservable and remove moves the last entry
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

// remove releases line's register and its hold on the completion; a line
// without one is left alone.
func (m *mshrs) remove(line mem.LineAddr, comps *completionPool) {
	i := m.find(line)
	if i < 0 {
		return
	}
	comps.release(m.infos[i].done)
	last := len(m.lines) - 1
	m.lines[i], m.infos[i] = m.lines[last], m.infos[last]
	m.infos[last] = outstandingInfo{} // no stale completion behind the length
	m.lines, m.infos = m.lines[:last], m.infos[:last]
}

func (m *mshrs) len() int { return len(m.lines) }
