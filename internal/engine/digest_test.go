package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"bopsim/internal/engine"
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
// whose dirty victims reach DRAM, so the write-back path is pinned too; and a
// warmed run restored from its own snapshot.
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

// checkPinned runs p and requires the digest model.lock records for it
// under kind. A change that means to leave the model alone must pass
// unchanged; one that moves a digest on purpose bumps engine.ModelVersion
// and runs `make schema-lock` (TestSchemaLock).
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
	if got := digest(p.run(t)); got != want {
		t.Errorf("%s digest %s, %s pins %s", kind, got, modelLock, want)
	}
}

func TestResultDigests(t *testing.T) {
	for _, p := range resultRuns {
		t.Run(p.name, func(t *testing.T) { checkPinned(t, "result", p) })
	}
}

func TestSnapshotDigest(t *testing.T) { checkPinned(t, "snapshot", snapshotRun) }

// TestSchemaLock checks testdata/model.lock: engine.ModelVersion, the
// layouts of what a run stores (a snapshot, its warmup signature, Options
// and Result, and every struct they reach) and the digest of every pinned
// run. A snapshot and a result record are positional and a Restore or a
// loader refuses by version alone, so a layout or a digest that moves
// without the constant would serve older bytes as current. After a reviewed
// change, bump the constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	var b strings.Builder
	b.WriteString(schemalock.Render(engine.LockRoots...))
	b.WriteString("\n[digests]\n")
	for _, p := range resultRuns {
		fmt.Fprintf(&b, "result %s %s\n", p.name, digest(p.run(t)))
	}
	fmt.Fprintf(&b, "snapshot %s %s\n", snapshotRun.name, digest(snapshotRun.run(t)))
	if err := schemalock.Check(modelLock, "model-version", engine.ModelVersion, b.String()); err != nil {
		t.Fatal(err)
	}
}
