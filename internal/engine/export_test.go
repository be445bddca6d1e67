package engine

import (
	"bytes"
	"reflect"
	"unsafe"

	"bopsim/internal/cache"
	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/stride"
	"bopsim/internal/tlb"
	"bopsim/internal/uncore"
)

// PackedSpans locates the L3's packed line records (cache.State.Lines) and
// packed stamp records (cache.PolicyState.Stamps) inside snapshot bytes, so
// FuzzRestore can seed mutations there: gob moves a []byte verbatim, so the
// records sit in data as they sit in the state.
func PackedSpans(data []byte) (lineOff, lineN, stampOff, stampN int, err error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	lines, stamps := snap.Uncore.L3.Lines, snap.Uncore.L3.Policy.Stamps
	return bytes.Index(data, lines), len(lines), bytes.Index(data, stamps), len(stamps), nil
}

// NextEventCycle exposes the skip-ahead horizon so the equivalence suite can
// count skipped cycles: Step(NextEventCycle()-Cycles()) is exactly one jump.
func (s *Simulation) NextEventCycle() uint64 { return s.nextEventCycle() }

// hierField returns the address of an unexported field of uncore.Hierarchy.
// The suites below compare state no production code exposes (and flip a
// switch none sets), so they reach it the only way another package's test
// can: by address. T must be the field's exact type.
func hierField[T any](h *uncore.Hierarchy, name string) *T {
	return (*T)(unsafe.Pointer(reflect.ValueOf(h).Elem().FieldByName(name).UnsafeAddr()))
}

// SetRefusalMemos turns the uncore's refusal memos off (every attempt is then
// evaluated in full: the oracle TestRefusalMemoEquivalence compares against)
// or back on.
func (s *Simulation) SetRefusalMemos(on bool) { *hierField[bool](s.hier, "memoOff") = !on }

// MemoShare is one retry loop's attempts, split three ways: answered from a
// refusal memo, charged for a cycle that was skipped, and (the rest)
// evaluated in full.
type MemoShare struct{ Hits, Skipped, Attempts uint64 }

// Cheap is the share of the attempts that were not evaluated in full.
func (m MemoShare) Cheap() float64 {
	if m.Attempts == 0 {
		return 0
	}
	return float64(m.Hits+m.Skipped) / float64(m.Attempts)
}

// memoCount reads one counter of the uncore's unexported memo telemetry.
func memoCount(h *uncore.Hierarchy, field string) uint64 {
	return reflect.ValueOf(h).Elem().FieldByName("memoHits").FieldByName(field).Uint()
}

// RefusalMemoShares returns the memo telemetry of the three retry loops:
// Demand calls, demand-queue head attempts and prefetch-queue head attempts.
func (s *Simulation) RefusalMemoShares() (demand, head, pref MemoShare) {
	s.settle()
	h, st := s.hier, s.hier.Stats()
	return MemoShare{memoCount(h, "demand"), memoCount(h, "skippedDemand"), st.DL1Hits + st.DL1Misses},
		MemoShare{memoCount(h, "head"), memoCount(h, "skippedHead"), st.L2DemandAccesses},
		MemoShare{memoCount(h, "pref"), memoCount(h, "skippedPref"), memoCount(h, "prefAttempts")}
}

// CoreDigest is one core's part of a MachineDigest.
type CoreDigest struct {
	Retired, DispatchStallMSHR         uint64
	DL1Hits, DL1Misses, L2Hits, L2Miss uint64
	TLB                                tlb.State     // every stamp, both clocks, hit counts
	Stride                             *stride.Stats // nil unless the DL1 prefetcher reports them
}

// MachineDigest is the machine below what a Result shows: the state a
// skipped dispatch stall is charged to (DTLB1 stamps and clock, the stride
// prefetcher's decision counts, DispatchStallMSHR, the per-cache miss
// counters) next to everything a Result is computed from. Two drivers of one
// run must agree on all of it. The memo telemetry is in only as far as it is
// a property of the run and not of the driver: Demand replays answered
// cheaply, and prefetch-head attempts.
type MachineDigest struct {
	Cycles             uint64
	Hier               uncore.Stats
	DRAM               dram.Stats
	Cores              []CoreDigest
	CheapDemandReplays uint64
	PrefetchAttempts   uint64
}

// DigestMachine reads the digest of a machine at cycle now. It settles
// nothing: a driver that stops inside a skipped span gets the counters as
// they stand (Simulation.DeepDigest settles first).
func DigestMachine(now uint64, h *uncore.Hierarchy, cores []*cpu.Core) MachineDigest {
	d := MachineDigest{Cycles: now, Hier: h.Stats(), DRAM: h.Memory().TotalStats(),
		CheapDemandReplays: memoCount(h, "demand") + memoCount(h, "skippedDemand"),
		PrefetchAttempts:   memoCount(h, "prefAttempts")}
	tlbs := *hierField[[]*tlb.Hierarchy](h, "tlbs")
	dl1, l2 := *hierField[[]*cache.Cache](h, "dl1"), *hierField[[]*cache.Cache](h, "l2")
	for i, c := range cores {
		cd := CoreDigest{Retired: c.Retired, DispatchStallMSHR: c.DispatchStallMSHR,
			DL1Hits: dl1[i].Hits, DL1Misses: dl1[i].Misses, L2Hits: l2[i].Hits, L2Miss: l2[i].Misses,
			TLB: tlbs[i].SaveState()}
		if pf, ok := h.L1Prefetcher(i).(interface{ Stats() stride.Stats }); ok {
			st := pf.Stats()
			cd.Stride = &st
		}
		d.Cores = append(d.Cores, cd)
	}
	return d
}

// DeepDigest is the simulation's MachineDigest at the current cycle, settled
// as Snapshot settles.
func (s *Simulation) DeepDigest() MachineDigest {
	s.settle()
	return DigestMachine(s.now, s.hier, s.cores)
}
