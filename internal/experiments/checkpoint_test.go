package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// executed straight, however many slots race over the groups. The last row
// sets neither CheckpointDir nor CacheDir: with nowhere to keep snapshots
// the Runner says sharing is off and runs straight, writing nothing to the
// system temp directory.
func TestCheckpointedSweepMatchesSerial(t *testing.T) {
	serial := tinyRunner()
	serial.Instructions = 20_000
	serial.Warmup = 15_000
	want := renderTable(t, serial.Fig6())

	for _, tc := range []struct {
		workers int
		noDir   bool
	}{{1, false}, {2, false}, {4, false}, {1, true}} {
		ckpt := tinyRunner()
		ckpt.Instructions = 20_000
		ckpt.Warmup = 15_000
		ckpt.Workers = tc.workers
		ckpt.Checkpoint = true
		var log bytes.Buffer
		ckpt.Log = &log
		tmp := t.TempDir()
		if tc.noDir {
			t.Setenv("TMPDIR", tmp)
		} else {
			ckpt.CheckpointDir = tmp
		}
		got := renderTable(t, ckpt.Fig6())
		if !bytes.Equal(got, want) {
			t.Errorf("-j %d, no dir %v: checkpointed sweep rendered different bytes\nserial:\n%s\ncheckpointed:\n%s", tc.workers, tc.noDir, want, got)
		}
		entries, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if tc.noDir {
			if len(entries) != 0 {
				t.Errorf("a Runner with no snapshot directory left %d entries in TMPDIR", len(entries))
			}
			if !strings.Contains(log.String(), "warmup sharing off") {
				t.Errorf("a Runner with no snapshot directory did not log that sharing is off:\n%s", log.String())
			}
			continue
		}
		// The sharing actually happened: one snapshot per (benchmark,
		// config) group on disk.
		if len(entries) != 2 {
			t.Errorf("-j %d: %d snapshots on disk, want 2 (one per benchmark)", tc.workers, len(entries))
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

// keyedJobs turns options into the scheduler's jobs, keys set, group
// leaders first and their groups registered with c, as RunJobs does under
// warmup sharing.
func keyedJobs(c *ckptResolver, opts []engine.Options) []job {
	jobs := make([]job, len(opts))
	for i, o := range opts {
		jobs[i] = job{o: o, cacheKey: OptionsHash(o)}
	}
	return c.leadersFirst(jobs)
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

// TestResolveHandsLegMachineToOneCaller checks who gets the machine that ran
// a group's warmup leg: exactly one of the callers racing over the group —
// the group's leader, whichever caller ran the leg — at its barrier and
// built from the leader's options; every later caller gets none; and nobody
// does once the snapshot is already on disk.
func TestResolveHandsLegMachineToOneCaller(t *testing.T) {
	r := tinyRunner()
	r.Checkpoint = true
	r.CheckpointDir = t.TempDir()
	opts := sweepJobs(5_000, "416.gamess")
	first := r.checkpointResolver()
	jobs := keyedJobs(first, opts)

	// race resolves every job twice, all at once, and returns the one ref
	// and the machines handed out beside the jobs they were handed to.
	race := func(c *ckptResolver) (checkpointRef, []*engine.Simulation, []job) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		var ref checkpointRef
		var legs []*engine.Simulation
		var owners []job
		for i := 0; i < 2*len(jobs); i++ {
			j := jobs[i%len(jobs)]
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, leg, ok := c.resolve(j)
				mu.Lock()
				defer mu.Unlock()
				if !ok || ref != (checkpointRef{}) && got != ref {
					t.Errorf("resolve: ok %v, ref %v, want ok and one ref (%v)", ok, got, ref)
				}
				ref = got
				if leg != nil {
					legs = append(legs, leg)
					owners = append(owners, j)
				}
			}()
		}
		wg.Wait()
		return ref, legs, owners
	}

	ref, legs, owners := race(first)
	if len(legs) != 1 {
		t.Fatalf("%d callers were handed the leg's machine, want exactly 1", len(legs))
	}
	if !legs[0].AtBarrier() {
		t.Error("the leg's machine is not at its barrier")
	}
	if owners[0].cacheKey != jobs[0].cacheKey {
		t.Errorf("the leg's machine went to %s, not the leader %s", describeOptions(owners[0].o), describeOptions(jobs[0].o))
	}
	if got, want := OptionsHash(legs[0].Options()), jobs[0].cacheKey; got != want {
		t.Errorf("the leg's machine was built from options %s, not the leader's %s", got, want)
	}
	if _, leg, ok := first.resolve(jobs[0]); !ok || leg != nil {
		t.Errorf("a later caller: ok %v, machine %v, want ok and none", ok, leg)
	}
	// A fresh resolver finds the snapshot on disk: no leg runs, no machine.
	second := r.checkpointResolver()
	keyedJobs(second, opts)
	ref2, legs, _ := race(second)
	if len(legs) != 0 {
		t.Errorf("%d callers were handed a machine though the snapshot was on disk", len(legs))
	}
	if ref2 != ref {
		t.Errorf("cached snapshot resolved to %v, the leg wrote %v", ref2, ref)
	}
}

// forkCounter is a CheckpointBackend that executes as the in-process pool
// does and counts how its jobs reached it.
type forkCounter struct {
	localBackend
	runs, forks atomic.Int64
}

func (b *forkCounter) Run(slot int, o engine.Options) (engine.Result, error) {
	b.runs.Add(1)
	return b.localBackend.Run(slot, o)
}

func (b *forkCounter) RunFrom(slot int, o engine.Options, path, sha string) (engine.Result, error) {
	b.forks.Add(1)
	return b.localBackend.RunFrom(slot, o, path, sha)
}

// TestConfiguredBackendForksEveryJob pins the remote path: the leader runs
// on from its own barrier only under the in-process pool. A configured
// backend still sees RunFrom for every job, leaders included (its workers
// are elsewhere; the leg's machine is here), and both render the same bytes.
func TestConfiguredBackendForksEveryJob(t *testing.T) {
	mk := func() *Runner {
		r := tinyRunner()
		r.Instructions = 20_000
		r.Warmup = 15_000
		r.Workers = 2
		r.Checkpoint = true
		r.CheckpointDir = t.TempDir()
		return r
	}
	pool := mk()
	want := renderTable(t, pool.Fig6())

	backend := &forkCounter{localBackend: localBackend{workers: 2}}
	remote := mk()
	remote.Backend = backend
	if got := renderTable(t, remote.Fig6()); !bytes.Equal(got, want) {
		t.Errorf("configured backend rendered different bytes\npool:\n%s\nbackend:\n%s", want, got)
	}
	if runs, forks, jobs := backend.runs.Load(), backend.forks.Load(), int64(pool.Executed()); runs != 0 || forks != jobs {
		t.Errorf("configured backend saw %d Run and %d RunFrom calls, want 0 and %d", runs, forks, jobs)
	}
}

// TestLeaderSkipsTheForkUnderThePool drives execOnBackend as the in-process
// pool's slots do (no configured Backend) but hands it a recording backend:
// the job whose demand ran the leg must finish on the leg's machine without
// reaching the backend at all, with the result of a straight run, and its
// followers must fork from the snapshot it wrote.
func TestLeaderSkipsTheForkUnderThePool(t *testing.T) {
	r := tinyRunner()
	r.Checkpoint = true
	r.CheckpointDir = t.TempDir()
	ckpts := r.checkpointResolver()
	jobs := keyedJobs(ckpts, sweepJobs(5_000, "416.gamess"))
	backend := &recordingBackend{slots: 1}
	for i, j := range jobs {
		got, err := r.execOnBackend(backend, 0, j, ckpts)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			continue
		}
		want, err := engine.Run(context.Background(), j.o)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("leader's result differs from the straight run\n got %+v\nwant %+v", got, want)
		}
		if len(backend.jobs) != 0 {
			t.Errorf("the leader reached the backend: %v", backend.jobs)
		}
	}
	if len(backend.paths) != len(jobs)-1 {
		t.Errorf("%d RunFrom calls, want %d (every follower forks)", len(backend.paths), len(jobs)-1)
	}
}

// TestLeaderWithUnbuildableSpec pins what happens when a group's leader
// names a prefetcher that cannot be built. The leg is built from the
// leader's own options, so it fails with them: the leader's job reports the
// spec error, no snapshot is written, and the group's other jobs complete
// straight.
func TestLeaderWithUnbuildableSpec(t *testing.T) {
	r := tinyRunner()
	r.Workers = 2
	r.Checkpoint = true
	r.CheckpointDir = t.TempDir()
	jobs := sweepJobs(5_000, "416.gamess")
	jobs[0].L2PF = prefetch.Spec{Name: "no-such-prefetcher"}
	err := r.RunJobs(jobs)
	if err == nil || !strings.Contains(err.Error(), "no-such-prefetcher") {
		t.Fatalf("RunJobs error %v, want the leader's spec error", err)
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 1 {
		t.Errorf("%d failures reported, want only the leader's:\n%v", n, err)
	}
	if got := r.Executed(); got != 2 {
		t.Errorf("executed %d simulations, want the group's 2 buildable jobs", got)
	}
	if snaps, _ := filepath.Glob(filepath.Join(r.CheckpointDir, "*.ckpt")); len(snaps) != 0 {
		t.Errorf("a failed leg left snapshots behind: %v", snaps)
	}
	// The followers' results are those of straight runs.
	for _, o := range jobs[1:] {
		want, err := engine.Run(context.Background(), o)
		if err != nil {
			t.Fatal(err)
		}
		if got := cachedResult(t, r, o); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: result differs from the straight run", describeOptions(o))
		}
	}
}

// TestLegIgnoresArrivalOrder drives one group's jobs through execOnBackend
// on one slot, as the in-process pool does, in three arrival orders: the
// leader first, and each follower first. The leg is built from the
// leader's options whoever arrives first, and its machine goes to the
// leader alone, so the snapshots on disk, Executed(), the number of forks
// and every job's result are the same in every order — with a leader whose
// spec builds, and with one whose spec does not (no snapshot; the leader's
// job fails).
func TestLegIgnoresArrivalOrder(t *testing.T) {
	for _, broken := range []bool{false, true} {
		opts := sweepJobs(5_000, "416.gamess")
		if broken {
			opts[0].L2PF = prefetch.Spec{Name: "no-such-prefetcher"}
		}
		type outcome struct {
			snaps    []string
			executed uint64
			forks    int64
			results  []engine.Result // in job order
		}
		var want outcome
		for n, order := range [][]int{{0, 1, 2}, {1, 0, 2}, {2, 1, 0}} {
			r := tinyRunner()
			r.Checkpoint = true
			r.CheckpointDir = t.TempDir()
			ckpts := r.checkpointResolver()
			jobs := keyedJobs(ckpts, opts)
			backend := &forkCounter{localBackend: localBackend{workers: 1}}
			got := outcome{results: make([]engine.Result, len(jobs))}
			for _, i := range order {
				j := jobs[i]
				_ = r.runWith(j, func() (engine.Result, error) {
					return r.execOnBackend(backend, 0, j, ckpts)
				})
				got.results[i] = r.cache[j.cacheKey]
			}
			paths, _ := filepath.Glob(filepath.Join(r.CheckpointDir, "*.ckpt"))
			for _, p := range paths {
				got.snaps = append(got.snaps, filepath.Base(p))
			}
			got.executed, got.forks = r.Executed(), backend.forks.Load()
			if n == 0 {
				want = got
				wantSnaps, wantExecuted := 1, uint64(3)
				if broken {
					wantSnaps, wantExecuted = 0, 2
				}
				if len(got.snaps) != wantSnaps || got.executed != wantExecuted {
					t.Fatalf("broken=%v, leader first: %d snapshots and %d executed, want %d and %d",
						broken, len(got.snaps), got.executed, wantSnaps, wantExecuted)
				}
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("broken=%v, arrival order %v: snapshots %v, executed %d, forks %d; leader first: %v, %d, %d (or the results differ)",
					broken, order, got.snaps, got.executed, got.forks, want.snaps, want.executed, want.forks)
			}
		}
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
