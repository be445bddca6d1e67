package experiments

import (
	"path/filepath"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// TestOptionsHashGolden pins result-cache keys to literal values computed
// at the commit before internal/spec existed: a refactor of the spec layer,
// of Options.Normalized or of OptionsHash that moves any of them orphans
// every stored result, and nothing else in the suite would notice (the
// other key tests compare keys with each other, never with the past). A
// deliberate key change — a resultCacheVersion bump, a new Options field
// without omitempty — regenerates the literals in the same commit.
func TestOptionsHashGolden(t *testing.T) {
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
	cases := []struct {
		name string
		o    engine.Options
		want string
	}{
		{"bare name", with("429.mcf", nil), "3ed42a4057f796498e639f61eff0e8a99db32e20bbe934c3957629d5e5eb1961"},
		{"parameterized", with("stream:stride=128", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo:badscore=5,rr=64")
			o.L1PF = prefetch.MustSpec("stride:dist=8")
		}), "b2e01700f2fe73ca99938c42953870f8f792ced2bc70c83e53f64564f4f564d1"},
		// Non-canonical spellings hash like their canonical forms: a size
		// in another unit, an all-ones weights list, an upper-case
		// prefetcher name and key that never went through ParseSpec.
		{"size spelling", with("gups:footprint=64MB", nil), "e49f3f1cab1e5a633335f3e86fb7b9360b567ef6b9b3f79f4d913c1ca5f2db96"},
		{"implicit weights", with("mix:gens=stream+pchase,weights=1+1", nil), "3ad43c333e8510e4b29dffd25d1ec2a7796a76614ac5ad15f91fc4bd93a3b8f9"},
		{"unfolded prefetcher", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "BO", Params: map[string]string{"BadScore": "5"}}
		}), "50f86029b9d2b780e7ae82fb0f6f13252b6103129de5f45efd8c164fe276a20d"},
		// Keyed by the trace's content hash, so the temp path is invisible.
		{"file spec", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
		}), "202eb977925c6b59bbca65eed4a298e2022093af30387fef516b9b188a0772ec"},
		{"4-core heterogeneous", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("429.mcf"), trace.MustSpec("gups:footprint=128mb"),
				trace.MustSpec("stream:stride=128"), trace.MustSpec("459.GemsFDTD"),
			}
			o.Cores, o.Page = 4, mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}), "a32983e43cfb872747d1467370e5d906e9c2c9d47135572df812943608ae59ef"},
		{"duel with quoted sub-specs", with("462.libquantum", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=multi.minscore~6,period=4096")
		}), "3b7603810bcae428074588fede171ef0f41a3fc80ec62c15171c86fc08ba136f"},
		{"warmed run", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo")
			o.Warmup, o.Instructions = 20_000, 40_000
		}), "bd0b89a03e26b5919c283d586c51e01fe02d7e0a7bc610a72f0c298b6492fd9c"},
		// A spec the registry refuses still hashes, syntactically
		// canonicalized (folded name, lowercased key).
		{"unregistered prefetcher", with("429.mcf", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "Warp-Drive", Params: map[string]string{"X": "1"}}
		}), "ec8caef3e7002b6b765e250e9ae6ff61ee670779afed5c0921c78e02b3e34d82"},
	}
	for _, c := range cases {
		if got := OptionsHash(c.o); got != c.want {
			t.Errorf("%s: OptionsHash = %s, want %s", c.name, got, c.want)
		}
	}
}
