package engine_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/schemalock"
	"bopsim/internal/trace"
)

// pinnedRun is a run whose digest testdata/model.lock records: run returns
// the bytes the lock records the SHA-256 of.
type pinnedRun struct {
	name string
	run  func(t *testing.T) []byte
}

// straight pins the JSON encoding of the Result of a 20,000-instruction
// 429.mcf run under the baseline, as opts amends it. writesBack marks a run
// that must keep writing lines back to DRAM, the one path no other row or
// golden result reaches.
func straight(opts func(o *engine.Options), writesBack bool) func(t *testing.T) []byte {
	return func(t *testing.T) []byte {
		o := engine.DefaultOptions("429.mcf")
		o.Instructions = 20_000
		opts(&o)
		r := runStraight(t, o)
		if writesBack && r.DRAM.Writes == 0 {
			t.Errorf("no line written back to DRAM (%d reads)", r.DRAM.Reads)
		}
		return resultJSON(t, r)
	}
}

// resultRuns pin every byte of a Result: IPC and DRAM traffic, which are all
// the figures read, and every uncore.Stats and dram.Stats counter and BO
// statistic next to them, which only these runs and bopbench's sim_digest
// see. They cover the DL1 stride prefetcher on and off; 1, 2 and 4 cores;
// 4KB and 4MB pages; the nextline, bo and sbp L2 prefetchers; a store stream
// whose dirty victims reach DRAM, so the write-back path is pinned too; a
// load/store stream whose stores merge onto the MSHRs of loads the L2 serves,
// whose DL1 copies those stores dirty (about 1 s; a shorter run of it moves
// no byte when they are dropped); and a warmed run restored from its own
// snapshot.
var resultRuns = []pinnedRun{
	{"mcf-stride-nextline-1core-4KB", straight(func(*engine.Options) {}, false)},
	{"mcf-none-bo-1core-4KB", straight(func(o *engine.Options) {
		o.L1PF = prefetch.MustSpec("none")
		o.L2PF = prefetch.MustSpec("bo")
	}, false)},
	{"milc-stride-sbp-2core-4MB", straight(func(o *engine.Options) {
		o.Workloads = []trace.Spec{trace.MustSpec("433.milc")}
		o.Cores = 2
		o.Page = mem.Page4M
		o.L2PF = prefetch.MustSpec("sbp")
	}, false)},
	{"mcf-stride-bo-4core-4KB", straight(func(o *engine.Options) {
		o.Cores = 4
		o.Instructions = 10_000
		o.L2PF = prefetch.MustSpec("bo")
	}, false)},
	{"gups-none-nextline-4core-4MB", straight(func(o *engine.Options) {
		o.Workloads = []trace.Spec{trace.MustSpec("gups:footprint=8mb")}
		o.Cores = 4
		o.Page = mem.Page4M
		o.Instructions = 10_000
		o.L1PF = prefetch.MustSpec("none")
	}, false)},
	{"stores-writeback-1core-4KB", straight(func(o *engine.Options) {
		o.Workloads = []trace.Spec{trace.MustSpec("stream:storepct=100,memper1000=900,footprint=64mb")}
		o.Instructions = 200_000
	}, true)},
	{"stores-merged-1core-4KB", straight(func(o *engine.Options) {
		o.Workloads = []trace.Spec{trace.MustSpec("stream:storepct=50,memper1000=900,stride=32,footprint=12mb")}
		o.Instructions = 1_000_000
	}, true)},
	{"milc-stride-bo-warmed-restored", func(t *testing.T) []byte {
		o := warmed("433.milc")
		o.L2PF = prefetch.MustSpec("bo")
		r, _ := runCheckpointed(t, o)
		return resultJSON(t, r)
	}},
}

// snapshotRun pins one warmed 2-core snapshot, every byte of it: both
// cores' DL1 and L2 lines and the shared L3's, with their dirty flags and
// owner cores, the replacement stamps, the TLBs, DRAM and the cores. (A
// warmup leg runs with no prefetcher, so no line carries a prefetch bit;
// cache's TestCacheStateRoundTrip covers that flag.) A change to how the
// machine holds its state in memory (a cache line packed into one word, say)
// must leave it alone.
var snapshotRun = pinnedRun{"mcf-2core-warmed", func(t *testing.T) []byte {
	o := warmed("429.mcf")
	o.Cores = 2
	s, snap := warmupLeg(t, o)
	s.Close()
	return snap
}}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

const modelLock = "testdata/model.lock"

// pinned memoizes each pinned run's digest, so TestResultDigests,
// TestSnapshotDigest and TestSchemaLock run each once. None of them runs in
// parallel.
var pinned = map[string]string{}

// pinnedDigest returns the digest of p's bytes, running p unless a run of it
// that failed nothing already has.
func pinnedDigest(t *testing.T, p pinnedRun) string {
	t.Helper()
	if d, ok := pinned[p.name]; ok {
		return d
	}
	d := digest(p.run(t))
	if !t.Failed() {
		pinned[p.name] = d
	}
	return d
}

// checkPinned requires p's digest to be the one model.lock records for it
// under kind: the same line TestSchemaLock checks, named by the row that
// moved.
func checkPinned(t *testing.T, kind string, p pinnedRun) {
	t.Helper()
	lock, err := os.ReadFile(modelLock)
	if err != nil {
		t.Fatal(err)
	}
	prefix := kind + " " + p.name + " "
	want := "none"
	for _, line := range strings.Split(string(lock), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			want = rest
		}
	}
	if got := pinnedDigest(t, p); got != want {
		t.Errorf("%s digest %s, %s pins %s", kind, got, modelLock, want)
	}
}

func TestResultDigests(t *testing.T) {
	for _, p := range resultRuns {
		t.Run(p.name, func(t *testing.T) { checkPinned(t, "result", p) })
	}
}

func TestSnapshotDigest(t *testing.T) { checkPinned(t, "snapshot", snapshotRun) }

type keyCase struct {
	name string
	o    engine.Options
}

// keyCases are the result-cache keys the lock records, one spelling of each
// kind OptionsHash canonicalizes: a refactor of the spec layer, of
// Options.Normalized or of OptionsHash that moves any of them orphans every
// stored result, and only the lock compares a key with the past (the other
// key tests compare keys with each other). The file case replays a
// 500-instruction 456.hmmer trace written under t's temporary directory; it
// is keyed by content, so the path is invisible.
func keyCases(t *testing.T) []keyCase {
	tracePath := filepath.Join(t.TempDir(), "hmmer.trace")
	if err := trace.WriteTraceFile(tracePath, trace.MustWorkload("456.hmmer", 1), 500); err != nil {
		t.Fatal(err)
	}
	with := func(workload string, mutate func(o *engine.Options)) engine.Options {
		o := engine.DefaultOptions(workload)
		if mutate != nil {
			mutate(&o)
		}
		return o
	}
	return []keyCase{
		{"bare-name", with("429.mcf", nil)},
		{"parameterized", with("stream:stride=128", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo:badscore=5,rr=64")
			o.L1PF = prefetch.MustSpec("stride:dist=8")
		})},
		// Non-canonical spellings key like their canonical forms: a size in
		// another unit, an all-ones weights list, an upper-case prefetcher
		// name and key that never went through ParseSpec.
		{"size-spelling", with("gups:footprint=64MB", nil)},
		{"implicit-weights", with("mix:gens=stream+pchase,weights=1+1", nil)},
		{"unfolded-prefetcher", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "BO", Params: map[string]string{"BadScore": "5"}}
		})},
		{"file-spec", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
		})},
		{"4-core-heterogeneous", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("429.mcf"), trace.MustSpec("gups:footprint=128mb"),
				trace.MustSpec("stream:stride=128"), trace.MustSpec("459.GemsFDTD"),
			}
			o.Cores, o.Page = 4, mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		})},
		{"duel-with-quoted-sub-specs", with("462.libquantum", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=multi.minscore~6,period=4096")
		})},
		{"warmed-run", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo")
			o.Warmup, o.Instructions = 20_000, 40_000
		})},
		// A spec the registry refuses still keys, syntactically canonicalized
		// (folded name, lowercased key).
		{"unregistered-prefetcher", with("429.mcf", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "Warp-Drive", Params: map[string]string{"X": "1"}}
		})},
	}
}

// TestOptionsHashGolden checks what a record of each keyCases run stores:
// the options' own encoding, path form for a file workload, whatever form
// the key hashes.
func TestOptionsHashGolden(t *testing.T) {
	for _, c := range keyCases(t) {
		opts, _, err := engine.DecodeEntry(experiments.AppendEntry(nil, c.o, engine.Result{}))
		want, _ := json.Marshal(c.o.Normalized())
		if err != nil || !bytes.Equal(opts, want) {
			t.Errorf("%s: record options\n%s (%v)\nwant\n%s", c.name, opts, err, want)
		}
	}
}

// streamDigest hashes the first 10,000 instructions of generator name at
// seed as a trace file records them (trace.WriteTrace); trace's golden tests
// check its own generators' stream lines the same way.
func streamDigest(t *testing.T, name string, seed uint64) string {
	g, err := trace.NewGenerator(trace.Spec{Name: name}, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	if err := trace.WriteTrace(h, g, 10_000); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenDir holds the committed renders of the golden sweeps, which `make
// schema-lock` writes and CI's golden step diffs each render against.
const goldenDir = "../experiments/testdata/golden"

// TestSchemaLock checks testdata/model.lock, every value engine.ModelVersion
// governs:
//   - the layouts of what a run stores (a snapshot, its warmup signature,
//     Options and Result, and every struct they reach);
//   - the digest of every pinned run, and the result-cache key of every
//     keyCases entry;
//   - the first 10,000 instructions of every registered generator that builds
//     with defaults (at seed 1, and microthrash at 1+7919, the seed core 1
//     derives), TestKernelMultiStride's test-only multistride included, so a
//     change to the trace-file encoding moves these lines too;
//   - BO's share of the best offset's gain on TestKernelMultiStride's kernel;
//   - the SHA-256 of each committed golden render, so the renders ride the
//     lock.
//
// A snapshot and a result record are positional and a Restore or a loader
// refuses by version alone, so a value that moves without the constant would
// serve older bytes as current. After a reviewed change, bump the constant,
// then `make schema-lock`, which renders the golden files and rewrites the
// lock.
func TestSchemaLock(t *testing.T) {
	var b strings.Builder
	b.WriteString(schemalock.Render(engine.LockRoots...))
	b.WriteString("\n[digests]\n")
	for _, p := range resultRuns {
		fmt.Fprintf(&b, "result %s %s\n", p.name, pinnedDigest(t, p))
	}
	fmt.Fprintf(&b, "snapshot %s %s\n", snapshotRun.name, pinnedDigest(t, snapshotRun))

	for _, c := range keyCases(t) {
		fmt.Fprintf(&b, "key %s %s\n", c.name, experiments.OptionsHash(c.o))
	}

	for _, name := range trace.Names() {
		// "file" needs a path; trace's TestGoldenStreams checks that it is
		// the one generator with no default stream.
		if name != "file" {
			fmt.Fprintf(&b, "stream %s %s\n", name, streamDigest(t, name, 1))
		}
	}
	fmt.Fprintf(&b, "stream microthrash-core1 %s\n", streamDigest(t, "microthrash", 1+7919))

	fmt.Fprintf(&b, "kernel multistride-bo-share %.2f\n", readMultiStride(t).boShare())

	renders, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range renders {
		data, err := os.ReadFile(filepath.Join(goldenDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "render %s %s\n", f.Name(), digest(data))
	}
	if err := schemalock.Check(modelLock, "model-version", engine.ModelVersion, b.String()); err != nil {
		t.Fatal(err)
	}
}
