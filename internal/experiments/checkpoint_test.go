package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// renderTable returns a table's exact output bytes.
func renderTable(t *testing.T, tb *stats.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	tb.Render(&buf)
	return buf.Bytes()
}

// TestCheckpointedSweepMatchesSerial is the scheduler-level determinism
// gate: a sweep executed with warmup sharing (grouped warmup legs +
// checkpoint forking) must render byte-identical tables to the same sweep
// executed straight, however many slots race over the groups.
func TestCheckpointedSweepMatchesSerial(t *testing.T) {
	serial := tinyRunner()
	serial.Instructions = 20_000
	serial.Warmup = 15_000
	want := renderTable(t, serial.Fig6())

	for _, workers := range []int{1, 2, 4} {
		ckpt := tinyRunner()
		ckpt.Instructions = 20_000
		ckpt.Warmup = 15_000
		ckpt.Workers = workers
		ckpt.Checkpoint = true
		ckpt.CheckpointDir = t.TempDir()
		got := renderTable(t, ckpt.Fig6())

		if !bytes.Equal(got, want) {
			t.Errorf("-j %d: checkpointed sweep rendered different bytes\nserial:\n%s\ncheckpointed:\n%s", workers, want, got)
		}
		// The sharing actually happened: one snapshot per (benchmark,
		// config) group on disk.
		entries, err := os.ReadDir(ckpt.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 2 {
			t.Errorf("-j %d: %d snapshots on disk, want 2 (one per benchmark)", workers, len(entries))
		}
	}
}

// recordingBackend is a CheckpointBackend that executes nothing: it records
// the order jobs reach it in, and the snapshot each RunFrom forks from.
type recordingBackend struct {
	slots int
	// pair, when non-nil, makes the first RunFrom wait for the second, so
	// the first two recorded paths belong to two slots' first forks however
	// fast one slot's leg is relative to the other's.
	pair  chan struct{}
	mu    sync.Mutex
	jobs  []string // describeOptions of every Run and RunFrom, in call order
	paths []string // checkpoint path of every RunFrom, in call order
}

func (b *recordingBackend) Slots() int                { return b.slots }
func (b *recordingBackend) SlotLabel(slot int) string { return "rec" }

func (b *recordingBackend) Run(_ int, o engine.Options) (engine.Result, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.jobs = append(b.jobs, describeOptions(o))
	return enumerationResult, nil
}

func (b *recordingBackend) RunFrom(_ int, o engine.Options, path, _ string) (engine.Result, error) {
	b.mu.Lock()
	n := len(b.paths)
	b.jobs = append(b.jobs, describeOptions(o))
	b.paths = append(b.paths, path)
	b.mu.Unlock()
	switch {
	case b.pair == nil:
	case n == 0:
		select {
		case <-b.pair:
		case <-time.After(30 * time.Second):
		}
	case n == 1:
		close(b.pair)
	}
	return enumerationResult, nil
}

// sweepJobs enumerates variants the way a figure builder does: workload by
// workload, every L2 prefetcher variant of one back to back.
func sweepJobs(warmup uint64, workloads ...string) []engine.Options {
	var jobs []engine.Options
	for _, w := range workloads {
		for _, pf := range []string{"none", "nextline", "bo"} {
			o := engine.DefaultOptions(w)
			o.Instructions = 5_000
			o.Warmup = warmup
			o.L2PF = prefetch.Spec{Name: pf}
			jobs = append(jobs, o)
		}
	}
	return jobs
}

// holdFirstLeg is a Runner.Log that holds the first "warmup ... ready" line
// — written by the resolver at the end of a leg, before the group's
// sync.Once completes — until a second group's snapshot is on disk. That
// can only happen if another slot ran a different group's leg meanwhile.
type holdFirstLeg struct {
	dir     string
	held    bool
	overlap bool
}

func (w *holdFirstLeg) Write(p []byte) (int, error) {
	if !w.held && bytes.Contains(p, []byte("warmup")) && bytes.Contains(p, []byte("ready")) {
		w.held = true
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if snaps, _ := filepath.Glob(filepath.Join(w.dir, "*.ckpt")); len(snaps) >= 2 {
				w.overlap = true
				break
			}
		}
	}
	return len(p), nil
}

// TestLeadersDispatchFirst checks the dispatch order under warmup sharing:
// every group's first job goes out before any follower, so two slots run
// two groups' legs at once and fork from two snapshots first, instead of
// the second slot queueing behind the first slot's leg for a follower.
func TestLeadersDispatchFirst(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("warmup legs are bounded to GOMAXPROCS; one CPU runs them serially by design")
	}
	backend := &recordingBackend{slots: 2, pair: make(chan struct{})}
	r := tinyRunner()
	r.Backend = backend
	r.Checkpoint = true
	r.CheckpointDir = t.TempDir()
	log := &holdFirstLeg{dir: r.CheckpointDir}
	r.Log = log
	jobs := sweepJobs(5_000, "416.gamess", "456.hmmer")
	if err := r.RunJobs(jobs); err != nil {
		t.Fatal(err)
	}
	if len(backend.paths) != len(jobs) {
		t.Fatalf("%d RunFrom calls, want %d (every job forks from a snapshot)", len(backend.paths), len(jobs))
	}
	if backend.paths[0] == backend.paths[1] {
		t.Errorf("the first two RunFrom calls fork from one snapshot, want one per group: %v", backend.paths[:2])
	}
	if !log.overlap {
		t.Error("no second group's leg finished while the first group's leg was held open: the legs ran serially")
	}
}

// TestDispatchOrderWithoutSharing checks that leaders-first reordering is
// confined to jobs that have a warmup group to lead: with Checkpoint off,
// and for jobs without a warmup region, a single slot sees the jobs in
// first-appearance order.
func TestDispatchOrderWithoutSharing(t *testing.T) {
	describe := func(jobs []engine.Options) []string {
		var d []string
		for _, o := range jobs {
			d = append(d, describeOptions(o))
		}
		return d
	}
	warm := sweepJobs(5_000, "416.gamess", "456.hmmer")
	cold := sweepJobs(0, "416.gamess", "456.hmmer")
	mixed := append(append([]engine.Options{}, warm[:2]...), cold[0], warm[3], cold[1])
	cases := []struct {
		name       string
		checkpoint bool
		jobs       []engine.Options
		want       []engine.Options
	}{
		{"checkpoint off", false, warm, warm},
		{"no warmup region", true, cold, cold},
		// warm[0] and warm[3] lead their groups; the rest keep their order.
		{"mixed", true, mixed, []engine.Options{warm[0], warm[3], warm[1], cold[0], cold[1]}},
	}
	for _, tc := range cases {
		backend := &recordingBackend{slots: 1}
		r := tinyRunner()
		r.Backend = backend
		r.Checkpoint = tc.checkpoint
		r.CheckpointDir = t.TempDir()
		if err := r.RunJobs(tc.jobs); err != nil {
			t.Fatal(err)
		}
		if got, want := backend.jobs, describe(tc.want); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: dispatch order\n got %v\nwant %v", tc.name, got, want)
		}
	}
}

// TestCheckpointReuseAcrossRunners checks a second sweep over the same
// directory reuses the cached snapshots instead of re-running warmup legs.
func TestCheckpointReuseAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	mk := func() *Runner {
		r := tinyRunner()
		r.Benchmarks = []trace.Spec{{Name: "416.gamess"}}
		r.Instructions = 10_000
		r.Warmup = 10_000
		r.Checkpoint = true
		r.CheckpointDir = dir
		return r
	}
	mk().Fig6()
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshots written (%v)", err)
	}
	info, err := entries[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	before := info.ModTime()

	mk().Fig6()
	entries2, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	info2, err := entries2[0].Info()
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(before) {
		t.Error("second sweep rewrote a cached snapshot instead of reusing it")
	}
}

// TestWarmupKeyExcludesSweptSpecs checks the grouping key: prefetcher
// variants share one warmup leg; anything shaping the warmed machine does
// not.
func TestWarmupKeyExcludesSweptSpecs(t *testing.T) {
	base := engine.DefaultOptions("433.milc")
	base.Warmup = 10_000
	baseKey, err := WarmupKey(base)
	if err != nil {
		t.Fatal(err)
	}

	shared := map[string]func(*engine.Options){
		"L2PF":         func(o *engine.Options) { o.L2PF = prefetch.Spec{Name: "bo"} },
		"L1PF":         func(o *engine.Options) { o.L1PF = prefetch.Spec{Name: "none"} },
		"Instructions": func(o *engine.Options) { o.Instructions = 77 },
		"MaxCycles":    func(o *engine.Options) { o.MaxCycles = 123_456_789 },
	}
	for field, mutate := range shared {
		o := base
		mutate(&o)
		if k, err := WarmupKey(o); err != nil || k != baseKey {
			t.Errorf("changing %s splits the warmup group (key %.12s vs %.12s, err %v)", field, k, baseKey, err)
		}
	}
	splitting := map[string]func(*engine.Options){
		"Workload": func(o *engine.Options) { o.Workloads = []trace.Spec{{Name: "470.lbm"}} },
		"Seed":     func(o *engine.Options) { o.Seed = 9 },
		"Cores":    func(o *engine.Options) { o.Cores = 2 },
		"Warmup":   func(o *engine.Options) { o.Warmup = 5_000 },
		"L3Policy": func(o *engine.Options) { o.L3Policy = "LRU" },
	}
	for field, mutate := range splitting {
		o := base
		mutate(&o)
		if k, err := WarmupKey(o); err != nil || k == baseKey {
			t.Errorf("changing %s does not split the warmup group (err %v)", field, err)
		}
	}
	// No warmup region: nothing to share.
	cold := engine.DefaultOptions("433.milc")
	if _, err := WarmupKey(cold); err == nil {
		t.Error("WarmupKey accepted a run without a warmup region")
	}
}

// TestWedgeSurfacesThroughRunJobs drives deliberately stalled simulations
// through the scheduler: the engine's wedge detection must surface as a
// RunJobs error, and multiple wedges must all appear in the errors.Join
// aggregation.
func TestWedgeSurfacesThroughRunJobs(t *testing.T) {
	r := tinyRunner()
	wedgeOpts := func(wl string) engine.Options {
		o := engine.DefaultOptions(wl)
		o.Instructions = 1_000_000
		// Far too few cycles to retire a million instructions: the engine
		// declares a wedge when MaxCycles pass without completion.
		o.MaxCycles = 500
		return o
	}
	err := r.RunJobs([]engine.Options{wedgeOpts("416.gamess"), wedgeOpts("456.hmmer")})
	if err == nil {
		t.Fatal("RunJobs with wedged simulations returned no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "wedged") {
		t.Errorf("error does not mention the wedge: %v", err)
	}
	for _, wl := range []string{"416.gamess", "456.hmmer"} {
		if !strings.Contains(msg, wl) {
			t.Errorf("aggregated error is missing the %s wedge: %v", wl, err)
		}
	}
	// A wedge during the warmup region surfaces identically.
	warm := wedgeOpts("416.gamess")
	warm.Warmup = 1_000_000
	warm.Seed = 2 // distinct cache key from the run above
	if err := r.RunJobs([]engine.Options{warm}); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Errorf("warmup wedge did not surface through RunJobs: %v", err)
	}
}
