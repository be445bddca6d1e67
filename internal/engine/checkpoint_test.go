package engine_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// warmed returns small options with a warmup region.
func warmed(workload string) engine.Options {
	o := engine.DefaultOptions(workload)
	o.Instructions = 20_000
	o.Warmup = 20_000
	return o
}

// resultJSON renders a result for byte comparison.
func resultJSON(t *testing.T, r engine.Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runStraight runs o start to finish without checkpointing.
func runStraight(t *testing.T, o engine.Options) engine.Result {
	t.Helper()
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// warmupLeg runs o's warmup region and returns the machine at its barrier
// with the snapshot taken there. Every request has retired at the barrier, so
// it also audits that no DL1-miss completion is still held: a holder that
// never lets go leaks a record per request and moves no Result byte.
func warmupLeg(t *testing.T, o engine.Options) (*engine.Simulation, []byte) {
	t.Helper()
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !s.AtBarrier() {
		t.Fatal("RunWarmup did not leave the simulation at the barrier")
	}
	if n := s.LiveCompletions(); n != 0 {
		t.Fatalf("%d DL1-miss completions live at the warmup barrier: some holder never released one", n)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return s, snap
}

// runCheckpointed runs o's warmup, checkpoints, restores into a fresh
// machine and completes the measured region there.
func runCheckpointed(t *testing.T, o engine.Options) (engine.Result, []byte) {
	t.Helper()
	_, snap := warmupLeg(t, o)
	restored, err := engine.Restore(snap, o)
	if err != nil {
		t.Fatal(err)
	}
	r, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r, snap
}

// quotedMetaSpecs are parameterized meta-prefetchers: nested quoted
// sub-specs must share a none-warmed snapshot like any other variant.
var quotedMetaSpecs = []string{
	"duel:a=bo,b=offset.d~4,period=512",
	"adapt:base=multi.offsets~1+2+4+8,window=1024",
}

// sharedWarmupMatchesStraight takes one snapshot from a warmup leg of
// workload with L2PF=none and requires it to restore every spec — installed
// cold at the barrier — to exactly the state that spec's own straight run
// reaches: the measured regions must be byte-identical.
func sharedWarmupMatchesStraight(t *testing.T, workload string, specs []string) {
	legOpts := warmed(workload)
	legOpts.L2PF = prefetch.Spec{Name: "none"}
	_, snap := warmupLeg(t, legOpts)
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			o := warmed(workload)
			o.L2PF = prefetch.MustSpec(spec)
			straight := resultJSON(t, runStraight(t, o))
			restored, err := engine.Restore(snap, o)
			if err != nil {
				t.Fatal(err)
			}
			r, err := restored.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got := resultJSON(t, r); !bytes.Equal(got, straight) {
				t.Errorf("variant restored from shared warmup diverged\nstraight: %s\nrestored: %s", straight, got)
			}
		})
	}
}

// TestGoldenDeterminismPerPrefetcher is the trust anchor of the checkpoint
// feature: every registered L2 prefetcher, plus the quoted meta specs,
// restored from one shared snapshot equals its own straight run.
func TestGoldenDeterminismPerPrefetcher(t *testing.T) {
	sharedWarmupMatchesStraight(t, "433.milc", append(prefetch.L2Names(), quotedMetaSpecs...))
}

// TestWarmupLegBytesIgnorePrefetcher checks the property that lets the
// scheduler run a group's warmup leg under its leader's own options: the leg
// of every registered L2 prefetcher (and the quoted meta specs) writes the
// snapshot a "none" leg writes, byte for byte.
func TestWarmupLegBytesIgnorePrefetcher(t *testing.T) {
	o := warmed("433.milc")
	o.L2PF = prefetch.Spec{Name: "none"}
	o.L1PF = prefetch.Spec{Name: "none"}
	_, want := warmupLeg(t, o)
	for _, spec := range append(prefetch.L2Names(), quotedMetaSpecs...) {
		o := warmed("433.milc")
		o.L2PF = prefetch.MustSpec(spec)
		if _, got := warmupLeg(t, o); !bytes.Equal(got, want) {
			t.Errorf("the warmup leg under %s wrote a different snapshot than the leg under none", spec)
		}
	}
}

// TestLegMachineRunsOn checks the machine that ran a warmup leg and was
// checkpointed is itself a valid fork of the snapshot: for every registered
// L2 prefetcher on 1 and 2 cores, running it on into the measured region, a
// Restore of the snapshot, and the straight run that never checkpoints give
// identical result bytes.
func TestLegMachineRunsOn(t *testing.T) {
	for _, cores := range []int{1, 2} {
		for _, spec := range prefetch.L2Names() {
			cores, spec := cores, spec
			t.Run(fmt.Sprintf("%d-core/%s", cores, spec), func(t *testing.T) {
				t.Parallel()
				o := warmed("433.milc")
				o.Cores = cores
				o.L2PF = prefetch.MustSpec(spec)
				straight := resultJSON(t, runStraight(t, o))
				leg, snap := warmupLeg(t, o)
				restored, err := engine.Restore(snap, o)
				if err != nil {
					t.Fatal(err)
				}
				for how, s := range map[string]*engine.Simulation{"leg machine": leg, "restored": restored} {
					r, err := s.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					if got := resultJSON(t, r); !bytes.Equal(got, straight) {
						t.Errorf("%s diverged from the straight run\nstraight: %s\n     got: %s", how, straight, got)
					}
				}
			})
		}
	}
}

// TestHeterogeneousWorkloadsCheckpointRoundTrip checks per-core workload
// specs survive checkpoint/restore byte-exactly: a two-core run with
// different generators on each core (gups driving core 0, a parameterized
// stream on core 1, then a mix combinator) produces identical measurements
// straight and checkpointed — every generator kind's cursor codec round
// trips through the snapshot.
func TestHeterogeneousWorkloadsCheckpointRoundTrip(t *testing.T) {
	for _, ws := range [][]trace.Spec{
		{trace.MustSpec("gups:footprint=4mb"), trace.MustSpec("stream:stride=128")},
		{trace.MustSpec("mix:gens=stream+pchase,weights=2+1"), trace.MustSpec("pchase:footprint=1mb")},
	} {
		o := warmed("")
		o.Workloads = ws
		o.Cores = 2
		o.Instructions = 10_000
		o.Warmup = 10_000
		o.L2PF = prefetch.Spec{Name: "bo"}
		straight := resultJSON(t, runStraight(t, o))
		ckpt, _ := runCheckpointed(t, o)
		if got := resultJSON(t, ckpt); !bytes.Equal(got, straight) {
			t.Errorf("heterogeneous %v checkpointed run diverged\nstraight: %s\nrestored: %s", ws, straight, got)
		}
	}
}

// TestSharedWarmupDeterminism repeats the check on a second workload with
// hand-picked parameterized specs.
func TestSharedWarmupDeterminism(t *testing.T) {
	sharedWarmupMatchesStraight(t, "459.GemsFDTD",
		append([]string{"bo", "sbp", "multi", "offset:d=4"}, quotedMetaSpecs...))
}

// TestMulticoreCheckpointDeterminism covers the 2-core configuration (core
// 1 runs the thrasher) and the 4MB page size.
func TestMulticoreCheckpointDeterminism(t *testing.T) {
	o := warmed("462.libquantum")
	o.Cores = 2
	o.Page = mem.Page4M
	o.L2PF = prefetch.Spec{Name: "bo"}
	straight := resultJSON(t, runStraight(t, o))
	ckpt, _ := runCheckpointed(t, o)
	if got := resultJSON(t, ckpt); !bytes.Equal(got, straight) {
		t.Errorf("2-core checkpointed run diverged\nstraight: %s\nrestored: %s", straight, got)
	}
}

// TestCheckpointByteStable checks the snapshot encoding is deterministic:
// checkpointing the same barrier twice yields identical bytes, and a
// restored simulation re-checkpoints to those same bytes (encode -> decode
// -> encode stability, the property content addressing relies on).
func TestCheckpointByteStable(t *testing.T) {
	o := warmed("470.lbm")
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	a, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("checkpointing the same barrier twice produced different bytes")
	}
	restored, err := engine.Restore(a, o)
	if err != nil {
		t.Fatal(err)
	}
	c, err := restored.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("restore -> checkpoint is not byte-stable")
	}
}

// TestRestoreKeepsNoReferenceToData checks Restore reads the record in place
// and keeps nothing of it: the buffer it restored from is overwritten before
// the run, and the run must still equal the straight one. The DRRIP row
// covers the RRPVs, which the decoder hands RestoreState as a window of the
// record as it does the packed lines and stamps.
func TestRestoreKeepsNoReferenceToData(t *testing.T) {
	for _, l3 := range []string{"5P", "DRRIP"} {
		o := warmed("429.mcf")
		o.Cores = 2
		o.L3Policy = l3
		o.L2PF = prefetch.MustSpec("bo")
		straight := resultJSON(t, runStraight(t, o))
		_, snap := warmupLeg(t, o)
		restored, err := engine.Restore(snap, o)
		if err != nil {
			t.Fatal(err)
		}
		for i := range snap {
			snap[i] = 0xff
		}
		r, err := restored.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := resultJSON(t, r); !bytes.Equal(got, straight) {
			t.Errorf("%s: a run restored from a buffer overwritten after Restore diverged\nstraight: %s\nrestored: %s", l3, straight, got)
		}
	}
}

// TestCheckpointOnlyAtBarrier checks a mid-run machine refuses to
// checkpoint instead of serializing in-flight state.
func TestCheckpointOnlyAtBarrier(t *testing.T) {
	o := warmed("416.gamess")
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Error("checkpoint before the barrier succeeded")
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(); err == nil {
		t.Error("checkpoint after measured cycles succeeded")
	}
}

// TestRestoreRejectsMismatchedOptions checks the warmup-signature guard:
// a snapshot cannot restore into options whose warmup leg differs.
func TestRestoreRejectsMismatchedOptions(t *testing.T) {
	o := warmed("416.gamess")
	_, snap := warmupLeg(t, o)
	cases := map[string]func(*engine.Options){
		"workload": func(o *engine.Options) { o.Workloads = []trace.Spec{{Name: "470.lbm"}} },
		"seed":     func(o *engine.Options) { o.Seed = 99 },
		"warmup":   func(o *engine.Options) { o.Warmup = 10_000 },
		"cores":    func(o *engine.Options) { o.Cores = 2 },
		"page":     func(o *engine.Options) { o.Page = mem.Page4M },
		"l3":       func(o *engine.Options) { o.L3Policy = "LRU" },
	}
	for name, mutate := range cases {
		bad := o
		mutate(&bad)
		if _, err := engine.Restore(snap, bad); err == nil {
			t.Errorf("restore into options with different %s succeeded", name)
		}
	}
	// Options differing only in measured-region knobs restore fine.
	ok := o
	ok.Instructions = 5_000
	ok.L2PF = prefetch.Spec{Name: "sbp"}
	if _, err := engine.Restore(snap, ok); err != nil {
		t.Errorf("restore into measured-region variant failed: %v", err)
	}
}

// FuzzRestore feeds arbitrary bytes to Restore: corrupted, truncated or
// version-skewed snapshots must return an error — never panic, and never
// hand back a simulation built from partial state. Restore is Checkpoint's
// exact inverse: a machine it restores checkpoints back to the very bytes
// it was restored from, so no second spelling of a record restores.
func FuzzRestore(f *testing.F) {
	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 2_000
	o.Warmup = 2_000
	s, err := engine.New(o)
	if err != nil {
		f.Fatal(err)
	}
	if err := s.RunWarmup(context.Background()); err != nil {
		f.Fatal(err)
	}
	snap, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap)
	f.Add([]byte{})
	f.Add([]byte(engine.SnapshotMagic))
	f.Add(snap[:len(snap)/2])
	// Version skew: the header's one-byte version, one more.
	header := len(engine.SnapshotMagic)
	if snap[header] != engine.ModelVersion {
		f.Fatalf("byte %d holds %d, not the version %d: the header moved", header, snap[header], engine.ModelVersion)
	}
	skew := append([]byte(nil), snap...)
	skew[header]++
	f.Add(skew)
	// A snapshot of an older version is refused by its version field,
	// whatever follows it.
	v11 := append([]byte(nil), snap...)
	v11[header] = 11
	if _, err := engine.Restore(v11, o); err == nil || !strings.Contains(err.Error(), "snapshot version 11") {
		f.Fatalf("v11 snapshot not refused by version: %v", err)
	}
	f.Add(v11)
	// Damage inside the L3's packed line and stamp records, which the
	// record carries as opaque bytes and only cache.RestoreState parses: a
	// zero index delta, a stray continuation bit mid-stream, an owner core no
	// machine has; a zero index delta and a stamp cut short.
	lineOff, lineN, stampOff, stampN, err := engine.PackedSpans(snap)
	if err != nil || lineOff < 0 || lineN == 0 || stampOff < 0 || stampN == 0 {
		f.Fatalf("no packed L3 lines (offset %d, %d bytes) or stamps (offset %d, %d bytes) in the snapshot (err %v)",
			lineOff, lineN, stampOff, stampN, err)
	}
	for _, m := range []struct {
		at       int
		b        byte
		rejected bool
	}{
		{lineOff, 0, true}, {lineOff + lineN/2, 0xff, false}, {lineOff + lineN - 1, 0x7f, true},
		{stampOff, 0, true}, {stampOff + stampN/2, 0xff, false}, {stampOff + stampN - 1, 0x80, true},
	} {
		mut := append([]byte(nil), snap...)
		mut[m.at] = m.b
		if _, err := engine.Restore(mut, o); err == nil && m.rejected {
			f.Fatalf("snapshot with packed byte %d set to %#x restored", m.at, m.b)
		}
		f.Add(mut)
	}
	recs := packedLines(snap[lineOff : lineOff+lineN])
	if len(recs) == 0 {
		f.Fatal("the snapshot's packed L3 lines do not walk as records")
	}
	// A line address that does not fit the 34 bits of a cache.Line: the
	// top bit of the first five-byte address varint set, which keeps every
	// length the record holds. Restore must refuse it, never truncate it.
	wide := append([]byte(nil), snap...)
	i := slices.IndexFunc(recs, func(r packedLine) bool { return r.addrLen == 5 })
	if i < 0 {
		f.Fatal("no five-byte line address among the snapshot's L3 records")
	}
	wide[lineOff+recs[i].addr+4] |= 0x40
	if _, err := engine.Restore(wide, o); err == nil || !strings.Contains(err.Error(), "does not fit") {
		f.Fatalf("snapshot with a line address past 34 bits not refused by its width: %v", err)
	}
	f.Add(wide)
	// The first owner core respelled in two bytes (c|0x80, 0x00), the
	// section's length one more: every field still decodes to the same
	// machine, but a checkpoint of it writes the one-byte spelling.
	at := lineOff + recs[0].core
	respelled := slices.Concat(snap[:at], []byte{snap[at] | 0x80, 0}, snap[at+1:])
	binary.BigEndian.PutUint32(respelled[lineOff-4:], uint32(lineN+1))
	if _, err := engine.Restore(respelled, o); err == nil || !strings.Contains(err.Error(), "overlong owner core") {
		f.Fatalf("snapshot with an owner core in two bytes not refused by its spelling: %v", err)
	}
	f.Add(respelled)
	// Lengths larger than the bytes left: the L3's packed lines claiming
	// 4 GB, and the core count claiming 2^20 cores (a third of a gigabyte of
	// decoded state). Both must be refused before anything of the claimed
	// size is allocated.
	long := append([]byte(nil), snap...)
	binary.BigEndian.PutUint32(long[lineOff-4:], 1<<32-1)
	cores := header + 1
	sigLen, n := binary.Uvarint(snap[cores:])
	cores += n + int(sigLen)
	_, n = binary.Uvarint(snap[cores:]) // the barrier cycle
	cores += n
	if snap[cores] != 1 {
		f.Fatalf("byte %d holds %d, not the core count 1: the record's layout moved", cores, snap[cores])
	}
	many := append(append(append([]byte(nil), snap[:cores]...), 0x80, 0x80, 0x40), snap[cores+1:]...)
	for _, claim := range [][]byte{long, many} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := engine.Restore(claim, o)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "malformed snapshot") {
			f.Fatalf("a length past the bytes left not refused by the decoder: %v", err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			f.Fatalf("refusing a length past the bytes left allocated %d bytes", grew)
		}
		f.Add(claim)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// A record the decoder accepts is the one record of what it read.
		if again, err := engine.ReencodeSnapshot(data); err == nil && !bytes.Equal(again, data) {
			t.Fatal("a record the decoder accepts re-encodes to other bytes")
		}
		restored, err := engine.Restore(data, o)
		if err != nil && restored != nil {
			t.Fatal("Restore returned both a simulation and an error")
		}
		if err != nil {
			return
		}
		if again, err := restored.Checkpoint(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("a restored machine checkpoints to other bytes (err %v)", err)
		}
		// A successful restore must be a fully valid barrier-state machine:
		// a few measured steps must not panic either.
		if _, err := restored.Step(64); err != nil {
			t.Fatalf("restored simulation errored immediately: %v", err)
		}
	})
}

// packedLine locates the fields of one packed line record
// (cache.State.Lines: index delta, address, flag byte, owner core) by their
// offsets in the section.
type packedLine struct {
	addr, addrLen, core int
}

// packedLines walks packed line records, or returns nil when they do not
// walk.
func packedLines(packed []byte) []packedLine {
	varint := func(off int) int { // the length of the varint at off, 0 if none
		_, n := binary.Uvarint(packed[off:])
		return max(n, 0)
	}
	var recs []packedLine
	for off := 0; off < len(packed); {
		delta := varint(off)
		if delta == 0 {
			return nil
		}
		r := packedLine{addr: off + delta}
		r.addrLen = varint(r.addr)
		r.core = r.addr + r.addrLen + 1 // after the flag byte
		if r.addrLen == 0 || r.core >= len(packed) || varint(r.core) == 0 {
			return nil
		}
		recs = append(recs, r)
		off = r.core + varint(r.core)
	}
	return recs
}
