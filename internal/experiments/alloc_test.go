package experiments

import (
	"bytes"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stats"
)

// "countbuilds" is next-line under a name of its own whose Build counts its
// calls. It has no Validate, so the registry checks it by building, as it
// does bo, sbp and stride: the count is what keying a job costs in
// throw-away prefetchers. Being registered, it is also one more row of this
// package's Zoo tests.
var countedBuilds atomic.Int64

func init() {
	prefetch.RegisterL2("countbuilds", prefetch.L2Def{
		Help:     "test registration: next-line that counts its constructions",
		Defaults: map[string]string{"tag": "0"},
		IntKeys:  []string{"tag"},
		Build: func(page mem.PageSize, _ prefetch.Values) (prefetch.L2Prefetcher, error) {
			countedBuilds.Add(1)
			return prefetch.NewNextLine(page), nil
		},
	})
}

// TestCachedRenderBuildsEachSpecOnce guards the cost of a fully cached
// render: keying a job (once per Runner, on a key memo miss in
// pendingJobs; the assembly pass answers from that key) must recall its
// specs' canonical forms, not re-derive them by building, and a Runner
// without a Log must not format a line per job. Each tag is spelled
// differently in the warm render ("03" for "3") so its spec is new to the
// process there: one Build each is the whole allowance. With
// check-by-building per Normalize call this read 3 per job.
func TestCachedRenderBuildsEachSpecOnce(t *testing.T) {
	const tags = 3
	render := func(r *Runner, spelling string) string {
		return r.materialize(func(run runFunc) *stats.Table {
			tb := stats.NewTable("countbuilds", "IPC")
			for _, wl := range r.Benchmarks {
				for tag := 1; tag <= tags; tag++ {
					o := r.options(wl, r.Configs[0])
					o.L2PF = prefetch.Spec{Name: "countbuilds", Params: map[string]string{"tag": spelling + strconv.Itoa(tag)}}
					tb.AddRow(wl.Name+"/"+strconv.Itoa(tag), run(o).IPC)
				}
			}
			return tb
		}).String()
	}
	cold := tinyRunner()
	cold.CacheDir = t.TempDir()
	want := render(cold, "")
	jobs := tags * len(cold.Benchmarks)
	if got := cold.Executed(); got != uint64(jobs) {
		t.Fatalf("cold render executed %d simulations, want %d", got, jobs)
	}

	warm := tinyRunner()
	warm.CacheDir = cold.CacheDir
	before := countedBuilds.Load()
	if got := render(warm, "0"); got != want {
		t.Errorf("cached render differs:\n%s\n---\n%s", got, want)
	}
	if got := warm.Executed(); got != 0 {
		t.Errorf("cached render executed %d simulations", got)
	}
	if built := countedBuilds.Load() - before; built > tags {
		t.Errorf("cached render of %d jobs over %d distinct specs built %d prefetchers, want at most one per spec", jobs, tags, built)
	}
}

// TestOptionsHashAllocs bounds what one cache key costs on a bo run: the
// three spec lookups, the normalized workload slice, one JSON encoding and
// the hex digest — 8 allocations. It was 18 when every call also built bo's
// RR and score tables and stride's table to validate specs validated
// before, so check-by-building per call cannot come back unnoticed.
func TestOptionsHashAllocs(t *testing.T) {
	o := engine.DefaultOptions("429.mcf")
	o.L2PF = prefetch.MustSpec("bo")
	want := OptionsHash(o)
	if avg := testing.AllocsPerRun(200, func() {
		if OptionsHash(o) != want {
			t.Fatal("OptionsHash is not stable")
		}
	}); avg > 10 {
		t.Errorf("OptionsHash allocates %.0f objects per call, want <= 10", avg)
	}
}

// TestKeyMemoHitAllocs guards what the key memo costs a cell it has seen:
// a cached render of Figures 6, 11 and 12 asks for 144 distinct cells 384
// times, and every repeat is a hit. The hit digests the cell, looks up its
// bucket and compares it with sameOptions, which allocates nothing;
// reflect.DeepEqual, which it replaced, allocated 8 objects per hit. The
// cell asked for is a separately built equal copy, as a figure builder
// builds one, so every parameter map is compared pair by pair.
func TestKeyMemoHitAllocs(t *testing.T) {
	r := tinyRunner()
	o := r.options(r.Benchmarks[0], r.Configs[0])
	o.L2PF = prefetch.MustSpec("bo:badscore=5")
	o.L1PF = prefetch.MustSpec("stride:dist=8")
	same := cloneOptions(o)
	r.mu.Lock()
	defer r.mu.Unlock()
	want, _ := r.keyOf(o)
	if avg := testing.AllocsPerRun(200, func() {
		if key, _ := r.keyOf(same); key != want {
			t.Fatal("the key memo answered an equal cell with another key")
		}
	}); avg != 0 {
		t.Errorf("a key memo hit allocates %.0f objects, want 0", avg)
	}
}

// TestDiskCachePath pins what naming a record costs a disk probe: one
// string, the concatenation, as the directory was cleaned when the cache was
// built. filepath.Join cost two, about 4 % of a warm render's CPU. The name
// is the file Join names, whatever form the directory was given in.
func TestDiskCachePath(t *testing.T) {
	key, _ := runKey(engine.DefaultOptions("429.mcf"))
	for _, dir := range []string{"", ".", "/", "cache", "cache/", "a//b/../c/", "/tmp/./results"} {
		if got, want := newDiskCache(dir).path(key), filepath.Join(dir, key+entryExt); filepath.Clean(got) != want {
			t.Errorf("dir %q: path %q, filepath.Join %q", dir, got, want)
		}
	}
	c := newDiskCache(t.TempDir())
	var path string
	if avg := testing.AllocsPerRun(200, func() { path = c.path(key) }); avg != 1 {
		t.Errorf("naming a record allocates %.0f objects, want 1", avg)
	}
	_ = path
}

// TestLoadIntoAllocs bounds what one disk probe of a cached render costs a
// loader with its buffer already grown: the record's path (one, see
// TestDiskCachePath), the path handed to the open call, and the result
// decodeEntry returns (its workload name, PerCoreReads and BO stats) — 5
// objects. Through an os.File it was 8, and 6 while filepath.Join named the
// record.
func TestLoadIntoAllocs(t *testing.T) {
	r := tinyRunner()
	r.CacheDir = t.TempDir()
	o := r.options(r.Benchmarks[0], r.Configs[0])
	o.Instructions = 5_000
	o.L2PF = prefetch.MustSpec("bo")
	if err := r.RunJobs([]engine.Options{o}); err != nil {
		t.Fatal(err)
	}
	key, opts := runKey(o)
	c := newDiskCache(r.CacheDir)
	var buf bytes.Buffer
	if _, ok := c.loadInto(&buf, key, opts); !ok {
		t.Fatal("the stored record does not load")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := c.loadInto(&buf, key, opts); !ok {
			t.Fatal("the stored record does not load")
		}
	}); avg > 5 {
		t.Errorf("loading one record allocates %.0f objects, want <= 5", avg)
	}
}
