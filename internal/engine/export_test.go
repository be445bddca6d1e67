package engine

import "bytes"

// PackedLinesSpan locates the L3's packed line records (cache.State.Lines)
// inside snapshot bytes, so FuzzRestore can seed mutations there: gob moves
// a []byte verbatim, so the records sit in data as they sit in the state.
func PackedLinesSpan(data []byte) (off, n int, err error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, 0, err
	}
	lines := snap.Uncore.L3.Lines
	return bytes.Index(data, lines), len(lines), nil
}

// NextEventCycle exposes the skip-ahead horizon so the equivalence suite can
// count skipped cycles: Step(NextEventCycle()-Cycles()) is exactly one jump.
func (s *Simulation) NextEventCycle() uint64 { return s.nextEventCycle() }
