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
// Snapshot layout:
//
//	magic    [8]byte  "BOCKPT01"
//	version  uint32   big endian, SnapshotVersion
//	payload  gob      one snapshot struct
//
// Snapshots are addressed by the SHA-256 of their full bytes (the same
// identity scheme as trace files; see trace.ContentSHA), and every snapshot
// embeds its warmup signature — the canonical encoding of every option that
// influenced the warmup leg — which Restore checks against the target
// options, so a snapshot can never be restored into a run it did not warm.
package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"bopsim/internal/cpu"
	"bopsim/internal/mem"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// SnapshotVersion is bumped whenever the snapshot payload schema or any
// serialized component's state layout changes incompatibly. Restore refuses
// other versions: a version skew means the two binaries disagree about what
// the bytes mean.
//
// v2: the warmup signature identifies workloads by per-core spec (file
// replays by content hash) instead of the Workload/TracePath pair, and
// generator cursors may carry mix sub-states.
//
// v3: the bo and multi prefetcher states carry their retunable parameters
// (offsets/degree/badscore, offsets/minscore) so prefetch.Retunable
// round-trips, and meta-prefetcher states (duel, adapt) frame nested child
// state.
//
// v4: cache.State carries its valid lines as packed bytes (NumLines plus
// one varint record per valid line) instead of a []Line of every line.
//
// v5: a snapshot is the drained machine and nothing else — the per-core
// prefetcher state frames (L2PF/L1PF) and the signature's prefetcher fields
// are gone.
//
// v6: Options lost its run-the-prefetchers-through-the-warmup switch (a
// warmup never runs them), and its spec fields are the one spec.Spec type.
//
// v7: cache.PolicyState carries its non-zero replacement stamps as packed
// bytes (NumStamps plus one varint record per stamp) instead of a []uint64 of
// every way's.
//
// v8: cache.State and tlb.LevelState lose their hit, miss, eviction and
// prefetched-hit counters: nothing read them, and no Result byte moved.
//
// v9: dram.Stats loses its write-burst count (it always equalled Writes),
// and a TLB level's clock no longer ticks when an access or probe touches
// the entry that is already most recent, so its clock and stamps read lower.
//
// v10: dram.Stats loses its merged-read count (the L3 fill queue is the one
// place in-flight reads are deduplicated, so it always read 0).
const SnapshotVersion = 10

// snapshotMagic begins every snapshot.
const snapshotMagic = "BOCKPT01"

// maxSnapshotBytes bounds what Restore will even look at. A real snapshot
// is a few hundred KB (the valid lines and their replacement stamps);
// anything beyond this is malformed or hostile.
const maxSnapshotBytes = 1 << 28

// snapshot is the gob payload.
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
		Version:     SnapshotVersion,
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

// Checkpoint serializes the simulation's state at the warmup barrier. It is
// only valid when AtBarrier reports true (after RunWarmup, before any
// measured cycle); any other point has in-flight state the format cannot
// carry, and Checkpoint reports an error rather than guessing.
func (s *Simulation) Checkpoint() ([]byte, error) {
	if s.err == errClosed {
		return nil, errClosed
	}
	if !s.AtBarrier() {
		return nil, fmt.Errorf("engine: Checkpoint is only valid at the warmup barrier (call RunWarmup first)")
	}
	sig, err := s.opts.WarmupSignature()
	if err != nil {
		return nil, err
	}
	snap := snapshot{Sig: sig, Cycles: s.now}
	for _, c := range s.cores {
		cs, err := c.SaveState()
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		snap.Cores = append(snap.Cores, cs)
	}
	if snap.Uncore, err = s.hier.SaveState(); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	var buf bytes.Buffer
	buf.WriteString(snapshotMagic)
	if err := binary.Write(&buf, binary.BigEndian, uint32(SnapshotVersion)); err != nil {
		return nil, err
	}
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("engine: encoding snapshot: %v", err)
	}
	return buf.Bytes(), nil
}

// decodeSnapshot validates the container and decodes the payload. It never
// panics: structural damage gob might trip over is converted to an error,
// which is what lets corrupted or truncated snapshots fail safely (see
// FuzzRestore).
func decodeSnapshot(data []byte) (snap snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: malformed snapshot: %v", r)
		}
	}()
	if len(data) > maxSnapshotBytes {
		return snapshot{}, fmt.Errorf("engine: snapshot of %d bytes exceeds the %d-byte limit", len(data), maxSnapshotBytes)
	}
	if len(data) < len(snapshotMagic)+4 {
		return snapshot{}, fmt.Errorf("engine: snapshot truncated (%d bytes)", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return snapshot{}, fmt.Errorf("engine: not a snapshot (bad magic %q)", data[:len(snapshotMagic)])
	}
	version := binary.BigEndian.Uint32(data[len(snapshotMagic):])
	if version != SnapshotVersion {
		return snapshot{}, fmt.Errorf("engine: snapshot version %d, this binary speaks %d", version, SnapshotVersion)
	}
	dec := gob.NewDecoder(bytes.NewReader(data[len(snapshotMagic)+4:]))
	if err := dec.Decode(&snap); err != nil {
		return snapshot{}, fmt.Errorf("engine: decoding snapshot: %v", err)
	}
	return snap, nil
}

// Restore builds a Simulation for o positioned exactly at the warmup
// barrier recorded in the snapshot, so running it to completion produces
// byte-identical results to running o from scratch (warmup included). The
// snapshot must carry the same warmup signature as o — same workload/trace
// content, core count, page size, seed and warmup length; the configured
// prefetchers are installed cold, as the barrier of a straight run does.
// Corrupted, truncated or version-skewed snapshots are rejected with an
// error; partial state is never installed.
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
