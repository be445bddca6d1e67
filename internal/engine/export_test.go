package engine

import (
	"fmt"
	"reflect"
	"unsafe"

	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/prefetch"
	"bopsim/internal/stride"
	"bopsim/internal/tlb"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// SnapshotMagic is the magic a snapshot's header begins with.
const SnapshotMagic = snapshotMagic

// LockRoots are what testdata/model.lock renders the layouts of: everything
// a run stores.
var LockRoots = []any{snapshot{}, warmupSig{}, Options{}, Result{}}

// PackedSpans locates the L3's packed line records (cache.State.Lines) and
// packed stamp records (cache.PolicyState.Stamps) inside snapshot bytes, so
// FuzzRestore can seed mutations there: the decoder reads both sections in
// place, so each is a window of data, and the four bytes before it are its
// length.
func PackedSpans(data []byte) (lineOff, lineN, stampOff, stampN int, err error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	lines, stamps := snap.Uncore.L3.Lines, snap.Uncore.L3.Policy.Stamps
	if len(lines) == 0 || len(stamps) == 0 {
		return -1, 0, -1, 0, nil
	}
	return offsetIn(data, lines), len(lines), offsetIn(data, stamps), len(stamps), nil
}

// offsetIn returns where the window w of data begins.
func offsetIn(data, w []byte) int {
	return int(uintptr(unsafe.Pointer(unsafe.SliceData(w))) - uintptr(unsafe.Pointer(unsafe.SliceData(data))))
}

// ReencodeSnapshot decodes data and encodes what it read: a record the
// decoder accepts must come back byte for byte.
func ReencodeSnapshot(data []byte) ([]byte, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	return appendSnapshot(nil, &snap), nil
}

// NextEventCycle exposes the skip-ahead horizon so the equivalence suite can
// count skipped cycles: Step(NextEventCycle()-Cycles()) is exactly one jump.
func (s *Simulation) NextEventCycle() uint64 { return s.nextEventCycle() }

// field returns the address of an unexported field of the struct p points to
// (an uncore.Hierarchy or a cpu.Core). The suites below compare state no
// production code exposes (and flip a switch none sets), so they reach it the
// only way another package's test can: by address. T must be the field's
// exact type.
func field[T any](p any, name string) *T {
	return (*T)(unsafe.Pointer(reflect.ValueOf(p).Elem().FieldByName(name).UnsafeAddr()))
}

// PendingStoreRefused reports whether core's fetched-but-undispatched
// instruction is a store whose access uncore.Hierarchy.DispatchStalled
// refuses: its dispatch is stalled on a store.
func (s *Simulation) PendingStoreRefused(core int) bool {
	c := s.cores[core]
	if !*field[bool](c, "hasPending") {
		return false
	}
	inst := *field[trace.Inst](c, "pending")
	return inst.Op == trace.OpStore && s.hier.DispatchStalled(core, inst.VA)
}

// SetRefusalMemos turns the uncore's refusal memos off (every attempt is then
// evaluated in full: the oracle TestRefusalMemoEquivalence compares against)
// or back on.
func (s *Simulation) SetRefusalMemos(on bool) { *field[bool](s.hier, "memoOff") = !on }

// MemoHits counts the attempts each of the three retry loops answered from
// its refusal memo — Demand calls, and demand-queue and prefetch-queue heads
// summed over the causes their memos remember — and the queue-head refusals
// each of the two queue loops evaluated in full.
type MemoHits struct {
	Demand, Head, Pref     uint64
	HeadMisses, PrefMisses uint64
}

// RefusalMemoHits reads the uncore's memo counts.
func (s *Simulation) RefusalMemoHits() MemoHits {
	hits := reflect.ValueOf(s.hier).Elem().FieldByName("memoHits")
	sum := func(name string) (n uint64) {
		byCause := hits.FieldByName(name)
		for i := range byCause.Len() {
			n += byCause.Index(i).Uint()
		}
		return n
	}
	return MemoHits{
		Demand: hits.FieldByName("demand").Uint(), Head: sum("head"), Pref: sum("pref"),
		HeadMisses: hits.FieldByName("headMisses").Uint(), PrefMisses: hits.FieldByName("prefMisses").Uint(),
	}
}

// CoreDigest is one core's part of a MachineDigest.
type CoreDigest struct {
	Retired uint64
	TLB     tlb.State // every stamp and both clocks
	// Stride is the DL1 stride prefetcher's table and filter, printed ("" for
	// any other DL1 prefetcher; a decorator is looked through by its Unwrap):
	// what a skipped retry leaves alone only because a repeated query changes
	// nothing.
	Stride string
}

// MachineDigest is the machine below what a Result shows: the state a
// skipped retry must leave alone that no Result reads (every TLB stamp and
// clock, the stride prefetcher) and everything a Result is computed from.
// Two drivers of one run must agree on all of it.
type MachineDigest struct {
	Cycles uint64
	Hier   uncore.Stats
	DRAM   dram.Stats
	Cores  []CoreDigest
}

// DigestMachine reads the digest of a machine at cycle now.
func DigestMachine(now uint64, h *uncore.Hierarchy, cores []*cpu.Core) MachineDigest {
	d := MachineDigest{Cycles: now, Hier: h.Stats(), DRAM: h.Memory().TotalStats()}
	tlbs := *field[[]*tlb.Hierarchy](h, "tlbs")
	for i, c := range cores {
		cd := CoreDigest{Retired: c.Retired, TLB: tlbs[i].SaveState()}
		pf := h.L1Prefetcher(i)
		if w, ok := pf.(interface{ Unwrap() prefetch.L1Prefetcher }); ok {
			pf = w.Unwrap()
		}
		if pf, ok := pf.(*stride.Prefetcher); ok {
			cd.Stride = fmt.Sprintf("%+v", *pf)
		}
		d.Cores = append(d.Cores, cd)
	}
	return d
}

// StrayDemand sends core 0 a load straight into the hierarchy, past every
// guard Simulation has: what a stray pointer to the machine would do. It
// releases the completion it is handed.
func (s *Simulation) StrayDemand() {
	if _, c, _ := s.hier.Demand(0, 0x400, 0x1000, false, s.now); c != nil {
		s.hier.Release(c)
	}
}

// LiveCompletions returns how many of the hierarchy's DL1-miss completions
// some holder has not released yet. Every request has retired at the warmup
// barrier, so there it must read 0.
func (s *Simulation) LiveCompletions() int64 {
	return reflect.ValueOf(s.hier).Elem().FieldByName("comps").FieldByName("live").Int()
}

// DeepDigest is the simulation's MachineDigest at the current cycle.
func (s *Simulation) DeepDigest() MachineDigest {
	return DigestMachine(s.now, s.hier, s.cores)
}
