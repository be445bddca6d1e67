// Checkpoint/restore for engine.Simulation.
//
// A checkpoint is taken at the warmup barrier, where the machine is drained
// dry: no in-flight requests, no futures, no ROB entries — only persistent
// state (cache contents and replacement state, TLB residency, DRAM bank
// registers, generator cursors, random streams). That is what makes the
// format tractable and the restore provably exact: Restore rebuilds the
// machine from the same options and overwrites precisely the state the
// barrier defines. Prefetchers are not part of it: the warmup runs without
// them and the barrier installs them cold.
//
// A snapshot is one positional record, written and read by hand
// (snapshot.go), the snapshot struct's fields in declaration order:
//
//	8 bytes  magic "BOCKPT01"
//	4 bytes  ModelVersion, big endian
//	uvarint  length of the warmup signature, then its bytes
//	uvarint  barrier cycle
//	uvarint  number of cores, then per core (cpu.State): the retired count;
//	         a byte 1 and the pending instruction (op, PC, VA as uvarints, a
//	         dependence byte) or a byte 0; the generator cursor (kind, random
//	         stream, ALU PC, each component's fields, cursor, wraps, then
//	         its mix sub-cursors the same way, at most maxGenDepth deep)
//	uvarint  every uncore.Stats counter, in declaration order
//	caches   the DL1s and the L2s, each list led by its uvarint length, then
//	         the L3. Per cache: NumLines; 4 bytes (big endian) of length and
//	         the packed line records (cache.State.Lines); the policy name,
//	         NumStamps; 4 bytes of length and the packed stamp records;
//	         clock, random stream, RRPVs as bytes, PSEL, the two 5P counter
//	         banks
//	uvarint  number of TLB hierarchies, then per core both levels (VPNs and
//	         stamps, each list led by its length, then the clock) and the
//	         walk count
//	uvarint  the prefetch queues' cancellation counts, led by their number
//	uvarint  number of DRAM channels, then per channel its banks (open row,
//	         row-open and precharge-ready cycles), fairness counters, served
//	         core, bus-free cycle, writes in batch, sequence number and
//	         dram.Stats (the counters, then PerCoreReads)
//
// An int is a zig-zag varint, a bool one byte 0 or 1, a string or []byte a
// uvarint length and the bytes, and every other list its uvarint length and
// its elements. Every varint is minimal and nothing follows the last field,
// so a record decodes in exactly one way: Restore accepts data only when
// Checkpoint would write data back. The packed sections are four-byte
// lengths because a writer packs a cache's records straight into the record
// and fills the length in after them; a reader uses them in place, and every
// count and length is checked against the bytes left before anything is
// allocated for it.
//
// Snapshots are addressed by the SHA-256 of their full bytes (the same
// identity scheme as trace files; see trace.ContentSHA), and every snapshot
// embeds its warmup signature — the canonical encoding of every option that
// influenced the warmup leg — which Restore checks against the target
// options, so a snapshot can never be restored into a run it did not warm.
package engine

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bopsim/internal/cpu"
	"bopsim/internal/mem"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// snapshotMagic begins every snapshot.
const snapshotMagic = "BOCKPT01"

// maxSnapshotBytes bounds what Restore will even look at. A real snapshot
// is a few hundred KB to a few MB (the valid lines and their replacement
// stamps); anything beyond this is malformed or hostile.
const maxSnapshotBytes = 1 << 28

// snapshot is what a record carries, in the order it carries it.
type snapshot struct {
	// Sig is the producing run's warmup signature (WarmupSignature).
	Sig string
	// Cycles is the absolute cycle count at the barrier.
	Cycles uint64
	// Cores holds each core's drained state, index-aligned with the
	// machine's cores.
	Cores []cpu.State
	// Uncore is the drained hierarchy state.
	Uncore uncore.State
}

// warmupSig is the canonical identity of a warmup leg: every normalized
// option that influences machine state up to the barrier. Instructions and
// MaxCycles are post-barrier knobs and deliberately absent, and so are the
// prefetcher specs: a signed warmup ran without prefetching and is shared
// across specs. Trace replays are identified by content, not path, so a
// worker's local copy signs identically.
type warmupSig struct {
	Version int
	// Workloads holds one hash-form spec string per core: canonical specs
	// with file replays identified by content SHA-256, never by path, so a
	// worker's local copy signs identically.
	Workloads   []string
	Cores       int
	Page        mem.PageSize
	L3Policy    string
	LatePromote bool
	Seed        uint64
	CPU         cpu.Config
	Warmup      uint64
}

// WarmupSignature returns the canonical string identifying this run's
// warmup leg. Two runs with equal signatures warm identical machines, so
// they can share one checkpoint; the experiment scheduler groups sweep
// variants by exactly this value. It reports an error when the options name
// a trace file that cannot be read: Checkpoint, Restore and
// experiments.WarmupKey all inherit the refusal from here, and such a run
// executes straight.
func (o Options) WarmupSignature() (string, error) {
	o = o.Normalized()
	sig := warmupSig{
		Version:     ModelVersion,
		Cores:       o.Cores,
		Page:        o.Page,
		L3Policy:    o.L3Policy,
		LatePromote: o.LatePromote,
		Seed:        o.Seed,
		CPU:         o.CPU,
		Warmup:      o.Warmup,
	}
	for _, w := range o.Workloads {
		hs, err := trace.WireSpec(w)
		if err != nil {
			return "", fmt.Errorf("engine: cannot compute warmup signature: %v", err)
		}
		sig.Workloads = append(sig.Workloads, hs.String())
	}
	b, err := json.Marshal(sig)
	if err != nil {
		return "", fmt.Errorf("engine: encoding warmup signature: %v", err)
	}
	return string(b), nil
}

// Restore builds a Simulation for o positioned exactly at the warmup
// barrier recorded in the snapshot, so running it to completion produces
// byte-identical results to running o from scratch (warmup included). The
// snapshot must carry the same warmup signature as o — same workload/trace
// content, core count, page size, seed and warmup length; the configured
// prefetchers are installed cold, as the barrier of a straight run does.
// Corrupted, truncated or version-skewed snapshots are rejected with an
// error; partial state is never installed. Restore reads data in place and
// the machine keeps none of it, so the caller may reuse data as soon as
// Restore returns.
func Restore(data []byte, o Options) (*Simulation, error) {
	snap, err := decodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	sig, err := o.WarmupSignature()
	if err != nil {
		return nil, err
	}
	if sig != snap.Sig {
		return nil, fmt.Errorf("engine: snapshot warms a different run (signature %s, options need %s)", snap.Sig, sig)
	}
	s, err := build(o, true)
	if err != nil {
		return nil, err
	}
	if len(snap.Cores) != len(s.cores) {
		return nil, fmt.Errorf("engine: snapshot covers %d cores, options need %d", len(snap.Cores), len(s.cores))
	}
	for i, c := range s.cores {
		if err := c.RestoreState(snap.Cores[i]); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	if err := s.hier.RestoreState(snap.Uncore); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	s.now = snap.Cycles
	s.startCycles = s.now
	s.startRetired = s.cores[0].Retired
	s.atBarrier = true
	return s, nil
}

// WriteFileAtomic stores data at path atomically: a uniquely named temp file
// in the destination directory, then a rename. Concurrent readers and
// writers — parallel sweeps sharing a checkpoint directory, two processes
// storing one result-cache key, parallel bosim invocations sharing one
// snapshot file — never observe or produce a torn file; the last rename
// wins whole.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	// CreateTemp makes the file 0600; a cache directory is shared the way
	// os.WriteFile's 0644 shares it.
	err = tmp.Chmod(0o644)
	if err == nil {
		_, err = tmp.Write(data)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
