package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// TestParallelMatchesSerial is the scheduler's core guarantee: the rendered
// tables are byte-identical whether the job set runs on one worker or many.
func TestParallelMatchesSerial(t *testing.T) {
	render := func(workers int) (string, string) {
		r := tinyRunner()
		r.Workers = workers
		return r.Fig2().String(), r.Fig6().String()
	}
	fig2Serial, fig6Serial := render(1)
	fig2Par, fig6Par := render(8)
	if fig2Serial != fig2Par {
		t.Errorf("Fig2 differs between -j 1 and -j 8:\n%s\n---\n%s", fig2Serial, fig2Par)
	}
	if fig6Serial != fig6Par {
		t.Errorf("Fig6 differs between -j 1 and -j 8:\n%s\n---\n%s", fig6Serial, fig6Par)
	}
}

// TestProgressReporting checks the callback sees every scheduled job and a
// consistent total.
func TestProgressReporting(t *testing.T) {
	r := tinyRunner()
	r.Workers = 4
	var mu sync.Mutex
	calls := 0
	lastTotal := 0
	r.Progress = func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		lastTotal = total
		if done < 1 || done > total {
			t.Errorf("progress (%d, %d) out of range", done, total)
		}
	}
	r.Fig6() // 2 benchmarks x 1 config x {baseline, BO} = 4 sims
	if calls != 4 || lastTotal != 4 {
		t.Errorf("progress called %d times with total %d, want 4/4", calls, lastTotal)
	}
	// A fully cached figure schedules nothing.
	calls = 0
	r.Fig6()
	if calls != 0 {
		t.Errorf("progress called %d times on a cached figure", calls)
	}
}

// TestRunJobsDedup checks duplicate option sets collapse to one execution.
func TestRunJobsDedup(t *testing.T) {
	r := tinyRunner()
	o := r.options(trace.MustSpec("416.gamess"), CoreConfig{Cores: 1, Page: mem.Page4K})
	// Same run spelled three ways: verbatim, duplicated, and with zero
	// values instead of explicit defaults.
	zeroSpelling := o
	zeroSpelling.L3Policy = ""
	if err := r.RunJobs([]engine.Options{o, o, zeroSpelling}); err != nil {
		t.Fatal(err)
	}
	if got := r.Executed(); got != 1 {
		t.Errorf("executed %d simulations, want 1", got)
	}
}

// TestRunJobsAbortsAfterFailure checks that once the failure budget
// (maxErrors) is spent, dispatch of the jobs queued behind it stops
// (in-flight ones still finish).
func TestRunJobsAbortsAfterFailure(t *testing.T) {
	r := tinyRunner()
	r.Workers = 1
	var jobs []engine.Options
	for seed := uint64(1); seed <= maxErrors; seed++ {
		bad := r.options(trace.MustSpec("no-such-benchmark"), CoreConfig{Cores: 1, Page: mem.Page4K})
		bad.Seed = seed
		jobs = append(jobs, bad)
	}
	for seed := uint64(1); seed <= 20; seed++ {
		o := r.options(trace.MustSpec("416.gamess"), CoreConfig{Cores: 1, Page: mem.Page4K})
		o.Seed = seed
		jobs = append(jobs, o)
	}
	err := r.RunJobs(jobs)
	if err == nil {
		t.Fatal("RunJobs returned no error for an unknown benchmark")
	}
	if got := len(err.(interface{ Unwrap() []error }).Unwrap()); got != maxErrors {
		t.Errorf("RunJobs joined %d failures, want all %d bad jobs", got, maxErrors)
	}
	// With one worker the last failure lands before most dispatches; allow
	// the handful that can race the flag.
	if got := r.Executed(); got > 2 {
		t.Errorf("executed %d queued jobs after the failure, want <= 2", got)
	}
}

// TestRunJobsAggregatesFailures checks a partially-failed sweep reports
// every bad job in one pass: the returned error joins all failures, each
// prefixed with the run it belongs to, instead of surfacing only the
// first.
func TestRunJobsAggregatesFailures(t *testing.T) {
	r := tinyRunner()
	r.Workers = 2
	jobs := []engine.Options{
		r.options(trace.MustSpec("no-such-benchmark-a"), CoreConfig{Cores: 1, Page: mem.Page4K}),
		r.options(trace.MustSpec("416.gamess"), CoreConfig{Cores: 1, Page: mem.Page4K}),
		r.options(trace.MustSpec("no-such-benchmark-b"), CoreConfig{Cores: 1, Page: mem.Page4K}),
	}
	err := r.RunJobs(jobs)
	if err == nil {
		t.Fatal("RunJobs returned no error for two unknown benchmarks")
	}
	for _, want := range []string{"no-such-benchmark-a", "no-such-benchmark-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing failure for %s:\n%v", want, err)
		}
	}
	// The good job between the bad ones still executed.
	if got := r.Executed(); got != 1 {
		t.Errorf("executed %d simulations, want 1 (the valid job)", got)
	}
}

// TestDiskCachePersists checks a second Runner pointed at the same cache
// directory replays every result from disk, executing nothing, and renders
// identical bytes.
func TestDiskCachePersists(t *testing.T) {
	dir := t.TempDir()

	r1 := tinyRunner()
	r1.CacheDir = dir
	first := r1.Fig6().String()
	if r1.Executed() == 0 {
		t.Fatal("first runner executed nothing")
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != int(r1.Executed()) {
		t.Fatalf("%d cache files for %d executions (err %v)", len(files), r1.Executed(), err)
	}

	r2 := tinyRunner()
	r2.CacheDir = dir
	second := r2.Fig6().String()
	if got := r2.Executed(); got != 0 {
		t.Errorf("second runner executed %d simulations, want 0 (disk cache)", got)
	}
	if first != second {
		t.Errorf("disk-cached table differs:\n%s\n---\n%s", first, second)
	}
}

// TestDiskCacheIgnoresCorruptEntries checks that an entry the disk cache
// cannot serve — truncated, stamped with another schema version, empty, or
// a directory where the file should be — is a miss that the loader pool
// reports once: the run executes exactly once and the table is unchanged.
func TestDiskCacheIgnoresCorruptEntries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(path string) error { return os.WriteFile(path, []byte("{not json"), 0o644) }},
		{"wrong version", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			var e CacheEntry
			if err := json.Unmarshal(b, &e); err != nil {
				return err
			}
			e.Version++
			if b, err = json.Marshal(e); err != nil {
				return err
			}
			return os.WriteFile(path, b, 0o644)
		}},
		{"empty", func(path string) error { return os.WriteFile(path, nil, 0o644) }},
		{"directory", func(path string) error {
			if err := os.Remove(path); err != nil {
				return err
			}
			return os.Mkdir(path, 0o755)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r1 := tinyRunner()
			r1.CacheDir = dir
			want := r1.Fig2().String()
			files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
			if len(files) == 0 {
				t.Fatal("no cache files written")
			}
			if err := tc.corrupt(files[0]); err != nil {
				t.Fatal(err)
			}
			r2 := tinyRunner()
			r2.CacheDir = dir
			if got := r2.Fig2().String(); got != want {
				t.Errorf("table differs after corrupting one entry:\n%s\n---\n%s", got, want)
			}
			if got := r2.Executed(); got != 1 {
				t.Errorf("executed %d simulations after corrupting one entry, want 1", got)
			}
		})
	}
}

// placeholderBackend executes nothing: each job it receives gets a
// distinct positive result, numbered in arrival order, so a figure's whole
// job set completes at once.
type placeholderBackend struct{ n atomic.Int64 }

func (b *placeholderBackend) Slots() int           { return 2 }
func (b *placeholderBackend) SlotLabel(int) string { return "placeholder" }

func (b *placeholderBackend) Run(int, engine.Options) (engine.Result, error) {
	n := b.n.Add(1)
	return engine.Result{IPC: float64(n), DRAMAccessesPerKI: float64(n % 4)}, nil
}

// materializeErr is materialize with its buildError returned, as
// TargetTables returns it.
func materializeErr(r *Runner, build func(runFunc) *stats.Table) (tb *stats.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			be, ok := p.(buildError)
			if !ok {
				panic(p)
			}
			err = be.error
		}
	}()
	return r.materialize(build), nil
}

// TestAssemblyReplaysEnumeration checks what lets materialize answer the
// assembly pass from the keys its enumeration computed: every target's
// builder asks for the same options in the same order on both passes (the
// guard in materialize fails the figure otherwise), and a builder whose
// passes disagree is stopped at its first divergent cell instead of being
// handed a neighbour's result.
func TestAssemblyReplaysEnumeration(t *testing.T) {
	for _, tg := range Targets() {
		if tg.tables == nil {
			continue
		}
		r := tinyRunner()
		backend := &placeholderBackend{}
		r.Backend = backend
		if _, err := TargetTables(r, tg.Name, true); err != nil {
			t.Errorf("%s: %v", tg.Name, err)
		}
		if backend.n.Load() == 0 {
			t.Errorf("%s scheduled no job", tg.Name)
		}
	}

	r := tinyRunner()
	r.Backend = &placeholderBackend{}
	cc := r.Configs[0]
	a, b, c := r.options(r.Benchmarks[0], cc), r.options(r.Benchmarks[1], cc), r.options(r.Benchmarks[0], cc)
	c.L2PF = prefetch.Spec{Name: "bo"}
	reseeded := c
	reseeded.Seed++
	enumerated := []engine.Options{a, b, c}
	for _, tc := range []struct {
		name   string
		second []engine.Options
		want   string
	}{
		{"reordered", []engine.Options{a, c, b}, "cell 1: asked for " + describeOptions(c)},
		{"changed", []engine.Options{a, b, reseeded}, "cell 2: asked for " + describeOptions(reseeded)},
		{"longer", []engine.Options{a, b, c, a}, "cell 3: asked for " + describeOptions(a)},
		{"shorter", []engine.Options{a, b}, "stopped at cell 2 of 3, never asking for " + describeOptions(c)},
	} {
		pass := 0
		_, err := materializeErr(r, func(run runFunc) *stats.Table {
			cells := enumerated
			if pass > 0 {
				cells = tc.second
			}
			pass++
			tb := stats.NewTable(tc.name, "IPC")
			for i, o := range cells {
				tb.AddRow(strconv.Itoa(i), run(o).IPC)
			}
			return tb
		})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s second pass: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestOptionsKeyComplete checks every outcome-affecting option participates
// in the cache key — the historical key omitted Seed, TracePath, SBP
// parameters and MaxCycles, aliasing distinct runs to one cached result.
func TestOptionsKeyComplete(t *testing.T) {
	base := engine.DefaultOptions("433.milc")
	mutations := map[string]func(*engine.Options){
		"Seed":         func(o *engine.Options) { o.Seed = 99 },
		"MaxCycles":    func(o *engine.Options) { o.MaxCycles = 123_456 },
		"L2PF name":    func(o *engine.Options) { o.L2PF = prefetch.Spec{Name: "sbp"} },
		"L2PF params":  func(o *engine.Options) { o.L2PF = prefetch.Spec{Name: "sbp"}.With("period", "128") },
		"L1PF":         func(o *engine.Options) { o.L1PF = prefetch.Spec{Name: "none"} },
		"L1PF params":  func(o *engine.Options) { o.L1PF = prefetch.MustSpec("stride:dist=8") },
		"Instructions": func(o *engine.Options) { o.Instructions = 1 },
		"Workload":     func(o *engine.Options) { o.Workloads = []trace.Spec{{Name: "470.lbm"}} },
		"Workload params": func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("433.milc:footprint=16mb")}
		},
		"CPU":      func(o *engine.Options) { o.CPU.ROBSize = 128 },
		"Offset d": func(o *engine.Options) { o.L2PF = prefetch.MustSpec("offset:d=3") },
		"Warmup":   func(o *engine.Options) { o.Warmup = 10_000 },
	}
	baseKey := OptionsHash(base)
	for field, mutate := range mutations {
		o := base
		mutate(&o)
		if OptionsHash(o) == baseKey {
			t.Errorf("changing %s does not change the cache key", field)
		}
	}
	// Equivalent spellings alias deliberately: zero values hash like their
	// resolved defaults, and specs spelling out a registered default
	// parameter hash like the bare name.
	implicit := base
	implicit.L3Policy = ""
	implicit.MaxCycles = 0
	implicit.L2PF = prefetch.Spec{}
	if OptionsHash(implicit) != baseKey {
		t.Error("normalized-equal options hash differently")
	}
	spelled := base
	spelled.L2PF = prefetch.MustSpec("nextline")
	spelled.L1PF = prefetch.MustSpec("stride:dist=16")
	if OptionsHash(spelled) != baseKey {
		t.Error("spec with spelled-out default parameter hashes differently")
	}
	bo1 := base
	bo1.L2PF = prefetch.MustSpec("bo:scoremax=31,badscore=5")
	bo2 := base
	bo2.L2PF = prefetch.Spec{Name: "bo"}.With("badscore", "5")
	if OptionsHash(bo1) != OptionsHash(bo2) {
		t.Error("equivalent bo specs hash differently")
	}
	// Per-core workload specs participate: changing a satellite core's
	// workload changes the key, while spelling out the microthrash default
	// aliases with leaving it implicit.
	multi := base
	multi.Cores = 2
	multiKey := OptionsHash(multi)
	if multiKey == baseKey {
		t.Error("core count does not change the cache key")
	}
	het := multi
	het.Workloads = []trace.Spec{{Name: "433.milc"}, {Name: "gups"}}
	if OptionsHash(het) == multiKey {
		t.Error("satellite-core workload does not change the cache key")
	}
	spelledSat := multi
	spelledSat.Workloads = []trace.Spec{{Name: "433.milc"}, {Name: "microthrash"}}
	if OptionsHash(spelledSat) != multiKey {
		t.Error("explicit microthrash satellite hashes differently from the implicit default")
	}
	spelledWL := base
	spelledWL.Workloads = []trace.Spec{trace.MustSpec("433.milc:memper1000=260")}
	if OptionsHash(spelledWL) != baseKey {
		t.Error("workload spec with spelled-out default parameter hashes differently")
	}
	// Workload-less options must NOT alias an explicit microthrash run:
	// normalization fills satellite slots only, so a caller who forgot to
	// set a workload can never be served a cached microthrash result.
	empty := base
	empty.Workloads = nil
	thrash := base
	thrash.Workloads = []trace.Spec{{Name: "microthrash"}}
	if OptionsHash(empty) == OptionsHash(thrash) {
		t.Error("empty workload list hashes like an explicit microthrash run")
	}
}

// TestRunJobsSurfacesBadWorkloadSpecs checks the satellite fix for unknown
// workloads: a sweep containing a bad generator name or a bad parameter
// reports each as a per-job error through RunJobs' errors.Join path —
// valid jobs still execute — instead of any panic escaping the scheduler.
func TestRunJobsSurfacesBadWorkloadSpecs(t *testing.T) {
	r := tinyRunner()
	r.Workers = 2
	cc := CoreConfig{Cores: 1, Page: mem.Page4K}
	jobs := []engine.Options{
		r.options(trace.Spec{Name: "no-such-workload"}, cc),
		r.options(trace.MustSpec("stream:stride=bogus"), cc),
		r.options(trace.Spec{Name: "416.gamess"}, cc),
	}
	err := r.RunJobs(jobs)
	if err == nil {
		t.Fatal("RunJobs returned no error for two bad workload specs")
	}
	for _, want := range []string{"no-such-workload", "stride"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error missing %q:\n%v", want, err)
		}
	}
	if got := r.Executed(); got != 1 {
		t.Errorf("executed %d simulations, want 1 (the valid job)", got)
	}
}

// TestTraceContentKeysCache checks trace replays are keyed by file content:
// rewriting the trace changes the key, and a byte-identical copy at a
// different path shares it.
func TestTraceContentKeysCache(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.trace")
	gen, err := trace.NewGenerator(trace.Spec{Name: "456.hmmer"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(pathA, gen, 2000); err != nil {
		t.Fatal(err)
	}
	o := engine.DefaultOptions("456.hmmer")
	o.Workloads = []trace.Spec{trace.FileSpec(pathA)}
	keyA := OptionsHash(o)

	// A byte-identical copy under another name is the same run.
	pathB := filepath.Join(dir, "b.trace")
	b, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathB, b, 0o644); err != nil {
		t.Fatal(err)
	}
	oB := o
	oB.Workloads = []trace.Spec{trace.FileSpec(pathB)}
	if OptionsHash(oB) != keyA {
		t.Error("identical trace content at a different path changed the key")
	}

	// Rewriting the trace with different content must change the key. (A
	// different length also changes the file size, so the mtime-based hash
	// memo can never serve the stale hash even on coarse-mtime filesystems.)
	gen2, err := trace.NewGenerator(trace.Spec{Name: "456.hmmer"}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(pathA, gen2, 2500); err != nil {
		t.Fatal(err)
	}
	if OptionsHash(o) == keyA {
		t.Error("editing the trace file did not change the cache key")
	}
}
