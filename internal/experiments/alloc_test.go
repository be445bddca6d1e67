package experiments

import (
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
// render: keying a job (pendingJobs, then the assembly pass) must recall its
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
