package engine

import (
	"fmt"

	"bopsim/internal/core"
)

// A result record stores one run's Result beside the options it ran: the
// result cache files it as <dir>/<key>.entry, and a distrib worker answers
// a job with the same bytes. It is written and read by the snapshot's codec
// (snapshot.go), so it shares the snapshot's primitives and its rule:
//
//	4 bytes  magic "bopR"
//	uvarint  ModelVersion
//	uvarint  length of the options, then the options: the caller's bytes
//	         (package experiments stores the JSON of the normalized Options)
//	uvarint  length of Workload, then its bytes
//	8 bytes  IPC, IEEE 754 bits, little-endian
//	uvarint  Cycles, Instructions
//	uvarint  every uncore.Stats counter, in declaration order
//	uvarint  every dram.Stats counter, in declaration order, then the length
//	         of PerCoreReads and each of its elements
//	8 bytes  DRAMAccessesPerKI, as IPC
//	byte     1 when BO is set, then every core.Stats field as a uvarint; 0
//	         when BO is nil
//	varint   FinalBOOffset (zig-zag)
//
// The record is positional: a Result field added, removed or reordered
// without a line here fails TestEntryRoundTrip, and without a ModelVersion
// bump fails TestSchemaLock.
const entryMagic = "bopR"

// AppendEntry appends to b the record of a run whose options encode as opts
// and whose result is res.
func AppendEntry(b, opts []byte, res Result) []byte {
	e := encoder{b: append(b, entryMagic...)}
	e.uvarint(ModelVersion)
	e.bytes(opts)
	e.string(res.Workload)
	e.float(res.IPC)
	e.uvarint(res.Cycles)
	e.uvarint(res.Instructions)
	e.hierStats(&res.Hier)
	e.dramStats(&res.DRAM)
	e.float(res.DRAMAccessesPerKI)
	e.bool(res.BO != nil)
	if res.BO != nil {
		for _, p := range boCounters(res.BO) {
			e.uvarint(*p)
		}
	}
	e.varint(int64(res.FinalBOOffset))
	return e.b
}

// DecodeEntry reads the record b: the options it stores, which alias b, and
// its result, which does not. It accepts b only when AppendEntry would write
// b back, and only from this ModelVersion.
func DecodeEntry(b []byte) (opts []byte, res Result, err error) {
	if len(b) < len(entryMagic) || string(b[:len(entryMagic)]) != entryMagic {
		return nil, Result{}, fmt.Errorf("engine: not a result record")
	}
	r := decoder{b: b[len(entryMagic):], size: len(b), kind: "result record"}
	if v := r.uvarint("version"); r.err == nil && v != ModelVersion {
		return nil, Result{}, fmt.Errorf("engine: result record version %d, this binary speaks %d", v, ModelVersion)
	}
	opts = r.bytes("options")
	res.Workload = string(r.bytes("workload"))
	res.IPC = r.float("IPC")
	res.Cycles = r.uvarint("cycles")
	res.Instructions = r.uvarint("instructions")
	r.hierStats(&res.Hier)
	r.dramStats(&res.DRAM)
	res.DRAMAccessesPerKI = r.float("DRAM accesses per KI")
	if r.bool("BO flag") {
		res.BO = new(core.Stats)
		for _, p := range boCounters(res.BO) {
			*p = r.uvarint("BO counter")
		}
	}
	res.FinalBOOffset = r.int("final BO offset")
	if err := r.end(); err != nil {
		return nil, Result{}, err
	}
	return opts, res, nil
}

// boCounters lists the fields of s in declaration order.
func boCounters(s *core.Stats) [5]*uint64 {
	return [...]*uint64{&s.Phases, &s.PhasesOff, &s.Issued, &s.RRInsertions, &s.ScoreMaxEnds}
}
