package engine

import (
	"bytes"
	"reflect"
	"unsafe"
)

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

// SetRefusalMemos turns the uncore's refusal memos off (every attempt is then
// evaluated in full: the oracle TestRefusalMemoEquivalence compares against)
// or back on. The switch is an unexported field of uncore.Hierarchy that no
// production code sets, so it is reached here the only way another package's
// test can: by address.
func (s *Simulation) SetRefusalMemos(on bool) {
	f := reflect.ValueOf(s.hier).Elem().FieldByName("memoOff")
	*(*bool)(unsafe.Pointer(f.UnsafeAddr())) = !on
}

// RefusalMemoShares returns the share of Demand calls, of demand-queue head
// attempts and of prefetch-queue head attempts that the uncore answered from
// a refusal memo, read from its unexported telemetry.
func (s *Simulation) RefusalMemoShares() (demand, head, pref float64) {
	hits := reflect.ValueOf(s.hier).Elem().FieldByName("memoHits")
	share := func(field string, of uint64) float64 {
		if of == 0 {
			return 0
		}
		return float64(hits.FieldByName(field).Uint()) / float64(of)
	}
	st := s.hier.Stats()
	return share("demand", st.DL1Hits+st.DL1Misses), share("head", st.L2DemandAccesses),
		share("pref", hits.FieldByName("prefAttempts").Uint())
}
