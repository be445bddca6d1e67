package experiments

import (
	"bytes"
	"encoding/binary"
	"math"

	"bopsim/internal/core"
	"bopsim/internal/engine"
)

// A result-cache entry is one record, <dir>/<OptionsHash>.entry, written and
// read by hand; a distrib worker answers /v1/run with the same bytes:
//
//	4 bytes  magic "bopR"
//	uvarint  engine.ModelVersion
//	uvarint  length of the options, then the options: the JSON encoding of
//	         the run's normalized engine.Options (runKey's second result)
//	uvarint  length of Result.Workload, then its bytes
//	8 bytes  Result.IPC, IEEE 754 bits, little-endian
//	uvarint  Cycles, Instructions
//	uvarint  every uncore.Stats field, in declaration order (engine.HierCounters)
//	uvarint  every dram.Stats counter, in declaration order (engine.DRAMCounters),
//	         then the length of PerCoreReads and each of its elements
//	8 bytes  DRAMAccessesPerKI, as IPC
//	byte     1 when BO is set, then every core.Stats field as a uvarint
//	         (boCounters); 0 when BO is nil
//	varint   FinalBOOffset (zig-zag)
//
// Every varint is minimal and nothing follows the last field, so a record
// decodes in exactly one way: decodeEntry accepts b only when
// appendEntry would write b back. The options stay JSON so that a human can
// still read what produced an entry; a loader never decodes them, it
// compares them with the bytes its own key came from. The record is
// positional: a Result field added, removed or reordered without codec
// support fails TestEntryRoundTrip, and without an engine.ModelVersion bump
// fails engine's TestSchemaLock.
const entryMagic = "bopR"

// entryExt names a record on disk. A cache directory may still hold the
// .json entries of older builds; no loader reads them.
const entryExt = ".entry"

// boCounters lists the fields of s in declaration order.
func boCounters(s *core.Stats) [5]*uint64 {
	return [...]*uint64{&s.Phases, &s.PhasesOff, &s.Issued, &s.RRInsertions, &s.ScoreMaxEnds}
}

// appendEntry appends the record of a run whose options encode as opts and
// whose result is res.
func appendEntry(b, opts []byte, res engine.Result) []byte {
	b = append(b, entryMagic...)
	b = binary.AppendUvarint(b, engine.ModelVersion)
	b = appendBytes(b, opts)
	b = appendBytes(b, []byte(res.Workload))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.IPC))
	b = binary.AppendUvarint(b, res.Cycles)
	b = binary.AppendUvarint(b, res.Instructions)
	for _, p := range engine.HierCounters(&res.Hier) {
		b = binary.AppendUvarint(b, *p)
	}
	for _, p := range engine.DRAMCounters(&res.DRAM) {
		b = binary.AppendUvarint(b, *p)
	}
	b = binary.AppendUvarint(b, uint64(len(res.DRAM.PerCoreReads)))
	for _, v := range res.DRAM.PerCoreReads {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.DRAMAccessesPerKI))
	if res.BO == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		for _, p := range boCounters(res.BO) {
			b = binary.AppendUvarint(b, *p)
		}
	}
	return binary.AppendVarint(b, int64(res.FinalBOOffset))
}

// AppendEntry appends the record of a run of o whose result is res: the
// bytes a local run stores under OptionsHash(o), and what a distrib worker
// answers a job with.
func AppendEntry(b []byte, o engine.Options, res engine.Result) []byte {
	_, opts := runKey(o)
	return appendEntry(b, opts, res)
}

// EntryResult returns the result of the record b when b is a record of a run
// of o, by the rule a loader serves a record by (acceptEntry).
func EntryResult(b []byte, o engine.Options) (engine.Result, bool) {
	_, opts := runKey(o)
	return acceptEntry(b, opts)
}

// acceptEntry returns the result of the record b when b is one whole record
// of this engine.ModelVersion that stores exactly opts: a record of another
// run, or of another version, is a miss.
func acceptEntry(b, opts []byte) (engine.Result, bool) {
	stored, res, ok := decodeEntry(b)
	if !ok || !bytes.Equal(stored, opts) {
		return engine.Result{}, false
	}
	return res, true
}

func appendBytes(b, s []byte) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decodeEntry reads the record b: the options it stores, which alias b, and
// its result. ok is false unless b is exactly one record of this
// engine.ModelVersion. A loader serves the result only when the options
// also equal the bytes its key was computed from (acceptEntry).
func decodeEntry(b []byte) (opts []byte, res engine.Result, ok bool) {
	if len(b) < len(entryMagic) || string(b[:len(entryMagic)]) != entryMagic {
		return nil, engine.Result{}, false
	}
	r := entryReader{b: b[len(entryMagic):]}
	if r.uvarint() != engine.ModelVersion {
		return nil, engine.Result{}, false
	}
	opts = r.bytes()
	res.Workload = string(r.bytes())
	res.IPC = r.float()
	res.Cycles = r.uvarint()
	res.Instructions = r.uvarint()
	for _, p := range engine.HierCounters(&res.Hier) {
		*p = r.uvarint()
	}
	for _, p := range engine.DRAMCounters(&res.DRAM) {
		*p = r.uvarint()
	}
	// Each element takes at least one byte, so a length past what is left
	// is refused before anything is allocated for it.
	if n := r.uvarint(); n > uint64(len(r.b)) {
		r.fail()
	} else if n > 0 {
		res.DRAM.PerCoreReads = make([]uint64, n)
		for i := range res.DRAM.PerCoreReads {
			res.DRAM.PerCoreReads[i] = r.uvarint()
		}
	}
	res.DRAMAccessesPerKI = r.float()
	switch r.flag() {
	case 0:
	case 1:
		res.BO = new(core.Stats)
		for _, p := range boCounters(res.BO) {
			*p = r.uvarint()
		}
	default:
		r.fail()
	}
	res.FinalBOOffset = int(r.varint())
	if r.bad || len(r.b) != 0 {
		return nil, engine.Result{}, false
	}
	return opts, res, true
}

// entryReader walks a record. The first malformed field marks it bad and
// empties it, so every later read fails too and yields zero.
type entryReader struct {
	b   []byte
	bad bool
}

func (r *entryReader) fail() { r.b, r.bad = nil, true }

// minimal reports whether the n-byte varint at the head of r.b is the
// shortest encoding of its value: only a one-byte varint may end in zero.
func (r *entryReader) minimal(n int) bool {
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail()
		return false
	}
	return true
}

func (r *entryReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if !r.minimal(n) {
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if !r.minimal(n) {
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *entryReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail()
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

func (r *entryReader) float() float64 {
	if len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *entryReader) flag() byte {
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}
