package experiments

import (
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
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
	files, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
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
		{"truncated", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, b[:len(b)/2], 0o644)
		}},
		{"wrong version", func(path string) error {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b[4]++ // the version, one uvarint byte after the four-byte magic
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
			files := entryFiles(t, dir)
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
// job set completes at once. It keeps every job with the result it got.
type placeholderBackend struct {
	n   atomic.Int64
	mu  sync.Mutex
	ran []engine.Options
	got []engine.Result
}

func (b *placeholderBackend) Slots() int           { return 2 }
func (b *placeholderBackend) SlotLabel(int) string { return "placeholder" }

func (b *placeholderBackend) Run(_ int, o engine.Options) (engine.Result, error) {
	n := b.n.Add(1)
	res := engine.Result{IPC: float64(n), DRAMAccessesPerKI: float64(n % 4)}
	b.mu.Lock()
	b.ran, b.got = append(b.ran, o), append(b.got, res)
	b.mu.Unlock()
	return res, nil
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
// handed a neighbour's result. It also checks where those keys come from,
// the Runner's key memo (keyOf): each job ran under the key OptionsHash
// gives its options — its result is filed there — every memo entry holds
// its own options' hash, and the cell print separates every cell a target
// asks for, so no lookup pays more than one DeepEqual.
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
		for i, o := range backend.ran {
			if got, ok := r.cache[OptionsHash(o)]; !ok || !reflect.DeepEqual(got, backend.got[i]) {
				t.Errorf("%s: the result of %s is not filed under its OptionsHash", tg.Name, describeOptions(o))
			}
		}
		checkKeyMemo(t, tg.Name, r, true)
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

// checkKeyMemo fails the test unless every key memo entry of r is the
// OptionsHash of the options it stores, and, when single is set, no bucket
// holds more than one entry.
func checkKeyMemo(t *testing.T, name string, r *Runner, single bool) {
	t.Helper()
	for p, cells := range r.keys {
		if single && len(cells) > 1 {
			t.Errorf("%s: memo bucket %+v holds %d cells", name, p, len(cells))
		}
		for _, c := range cells {
			if want := OptionsHash(c.o); c.key != want {
				t.Errorf("%s: memo keys %s as %.12s, OptionsHash says %.12s", name, describeOptions(c.o), c.key, want)
			}
		}
	}
}

// TestKeyMemoOwnsItsCells mutates, between two renders, a Params map the
// first render's cells share with their caller: a row's workload spec, the
// L2 spec, and a satellite core's workload spec, which no cell print looks
// at. The second render must key the changed cells anew — one job each —
// and leave every memo entry keyed by its own options. A memo that stored
// the caller's options instead of a copy fails both: the satellite change
// hits the aliased entry and runs nothing, and the other two leave an
// entry whose options no longer hash to its key. A trace file's cells are
// keyed by content, so rewriting the file between renders re-keys them too.
func TestKeyMemoOwnsItsCells(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(row, l2, sat spec.Spec)
		changed int64
	}{
		{"row spec", func(row, _, _ spec.Spec) { row.Params["footprint"] = "2mb" }, 2},
		{"L2 spec", func(_, l2, _ spec.Spec) { l2.Params["badscore"] = "5" }, 2},
		{"satellite spec", func(_, _, sat spec.Spec) { sat.Params["footprint"] = "2mb" }, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tinyRunner()
			r.Benchmarks[0] = trace.MustSpec("stream:footprint=1mb")
			backend := &placeholderBackend{}
			r.Backend = backend
			l2 := prefetch.MustSpec("bo:badscore=1")
			sat := trace.MustSpec("stream:footprint=1mb")
			render := func() string {
				return r.materialize(func(run runFunc) *stats.Table {
					tb := stats.NewTable(tc.name, "base", "bo")
					for _, wl := range r.Benchmarks {
						o := r.options(wl, CoreConfig{Cores: 2, Page: mem.Page4K})
						o.Workloads = append(o.Workloads, sat)
						base := run(o).IPC
						o.L2PF = l2
						tb.AddRow(wl.Name, base, run(o).IPC)
					}
					return tb
				}).String()
			}
			render()
			before := backend.n.Load()
			tc.mutate(r.Benchmarks[0], l2, sat)
			render()
			if got := backend.n.Load() - before; got != tc.changed {
				t.Errorf("second render ran %d jobs, want the %d cells the change touched", got, tc.changed)
			}
			checkKeyMemo(t, tc.name, r, false)
		})
	}

	t.Run("trace file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "a.trace")
		write := func(seed, n uint64) {
			gen, err := trace.NewGenerator(trace.Spec{Name: "456.hmmer"}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := trace.WriteTraceFile(path, gen, n); err != nil {
				t.Fatal(err)
			}
		}
		write(1, 2000)
		r := tinyRunner()
		o := r.options(trace.FileSpec(path), r.Configs[0])
		first, _ := r.pendingJobs([]engine.Options{o})
		// Another length, so the content hash's own mtime memo cannot
		// serve the old hash either.
		write(7, 2500)
		second, _ := r.pendingJobs([]engine.Options{o})
		if first[0] == second[0] || second[0] != OptionsHash(o) {
			t.Errorf("rewritten trace keyed %.12s, was %.12s, OptionsHash says %.12s", second[0], first[0], OptionsHash(o))
		}
	})
}

// TestKeyMemoSpansFigures checks that the memo is Runner-wide: every cell
// of Figure 12 is a cell of Figure 6 or 11, so once those two have
// rendered, Figure 12's first render hashes nothing. Each measured render
// starts from its own copy of the memo as Figures 6 and 11 left it; it must
// allocate fewer objects than a render on the memo it has filled itself
// plus one OptionsHash call. A render that starts from an empty memo shows
// the scale: it pays about one OptionsHash per cell on top, and at least
// half that under the race detector, whose sync.Pool drops objects at
// random.
func TestKeyMemoSpansFigures(t *testing.T) {
	r := tinyRunner()
	r.Backend = &placeholderBackend{}
	r.Fig6()
	r.Fig11()
	const runs = 20
	memos, empty := make([]map[cellPrint][]keyedCell, runs+1), make([]map[cellPrint][]keyedCell, runs+1) // AllocsPerRun calls f runs+1 times
	for i := range memos {
		memos[i], empty[i] = maps.Clone(r.keys), map[cellPrint][]keyedCell{}
	}
	fig12 := func(ms []map[cellPrint][]keyedCell) float64 {
		next := 0
		return testing.AllocsPerRun(runs, func() {
			r.keys = ms[next]
			next++
			r.Fig12()
		})
	}
	cold := fig12(empty)
	first := fig12(memos)
	filled := testing.AllocsPerRun(runs, func() { r.Fig12() })
	o := r.options(r.Benchmarks[0], r.Configs[0])
	o.L2PF = prefetch.Spec{Name: "sbp"}
	hash := testing.AllocsPerRun(runs, func() { OptionsHash(o) })
	cells := 2 * len(r.Benchmarks) * len(r.Configs)
	t.Logf("Figure 12 allocations: %.0f from an empty memo, %.0f after Figures 6 and 11, %.0f on its own memo; OptionsHash %.0f", cold, first, filled, hash)
	if cold < filled+hash*float64(cells)/2 {
		t.Errorf("Figure 12 from an empty memo allocates %.0f objects, %.0f on its filled memo: less than half of %d OptionsHash calls (%.0f each) apart", cold, filled, cells, hash)
	}
	if first >= filled+hash {
		t.Errorf("Figure 12 after Figures 6 and 11 allocates %.0f objects, %.0f on its own filled memo, one OptionsHash %.0f: it hashed a cell", first, filled, hash)
	}
	if len(r.keys) != len(memos[0]) {
		t.Errorf("Figure 12 added %d memo buckets to Figures 6 and 11's", len(r.keys)-len(memos[0]))
	}
}

// TestPartialCacheRerun deletes every 7th entry of a warm cache and renders
// Figures 6, 11 and 12 again on a fresh Runner: it must execute exactly the
// deleted cells and print the same bytes. Each figure's log must be the
// cold render's with the surviving cells' lines first, as "load", in the
// cold order, then the deleted cells' "ran" lines: the loaders finish in
// any order, but hits are applied in the order the figure asks for its
// cells. That holds at -j 1 and -j 2 — the executed cells' lines follow
// completion order at -j 2 (Runner.Log), so there they are compared as a
// set. Four loaders at least, so that loaders racing each other is the
// common case, not the exception.
func TestPartialCacheRerun(t *testing.T) {
	defer runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4))
	type line struct{ verb, cell string }
	// render renders the three figures on a fresh Runner and returns their
	// bytes and each figure's log lines.
	render := func(dir string, workers int) (r *Runner, out string, logs [][]line) {
		r = NewRunner(10_000, []CoreConfig{{Cores: 1, Page: mem.Page4K}, {Cores: 1, Page: mem.Page4M}})
		r.Benchmarks = QuickBenchmarks()[:8]
		r.CacheDir, r.Workers = dir, workers
		for _, fig := range []func() *stats.Table{r.Fig6, r.Fig11, r.Fig12} {
			var log strings.Builder
			r.Log = &log
			out += fig().String()
			var lines []line
			for _, l := range strings.Split(strings.TrimSpace(log.String()), "\n") {
				if l == "" {
					continue
				}
				verb, cell, _ := strings.Cut(strings.TrimSpace(l), " ")
				lines = append(lines, line{verb, strings.TrimSpace(cell)})
			}
			logs = append(logs, lines)
		}
		return r, out, logs
	}

	dir := t.TempDir()
	cold, want, coldLogs := render(dir, 1)
	files := entryFiles(t, dir)
	if len(files) != int(cold.Executed()) || len(files) < 14 {
		t.Fatalf("%d cache entries for %d runs, want at least 14 and one each", len(files), cold.Executed())
	}
	deleted := map[string]bool{} // describeOptions of each deleted cell
	for i := 0; i < len(files); i += 7 {
		key := strings.TrimSuffix(filepath.Base(files[i]), entryExt)
		for _, cells := range cold.keys {
			for _, c := range cells {
				if c.key == key {
					deleted[describeOptions(c.o)] = true
				}
			}
		}
	}

	for _, workers := range []int{1, 2} {
		for i := 0; i < len(files); i += 7 {
			if err := os.Remove(files[i]); err != nil {
				t.Fatal(err)
			}
		}
		r, got, logs := render(dir, workers)
		if got != want {
			t.Errorf("-j %d: partial rerun renders other bytes:\n%s\n---\n%s", workers, got, want)
		}
		if got := r.Executed(); got != uint64(len(deleted)) {
			t.Errorf("-j %d: executed %d simulations, want the %d deleted", workers, got, len(deleted))
		}
		for fig, coldLog := range coldLogs {
			var loads, ran []line
			for _, l := range coldLog {
				name, _, _ := strings.Cut(l.cell, " ")
				if deleted[name] {
					ran = append(ran, l)
				} else {
					loads = append(loads, line{"load", l.cell})
				}
			}
			wantLog, log := append(loads, ran...), logs[fig]
			if workers > 1 && len(log) == len(wantLog) {
				byCell := func(a, b line) int { return strings.Compare(a.cell, b.cell) }
				slices.SortFunc(wantLog[len(loads):], byCell)
				slices.SortFunc(log[len(loads):], byCell)
			}
			if !slices.Equal(log, wantLog) {
				t.Errorf("-j %d: figure %d of 3 logs\n%v\nwant\n%v", workers, fig+1, log, wantLog)
			}
		}
	}
}
