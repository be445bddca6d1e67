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
		{"bare name", with("429.mcf", nil), "ca8894dc1d8686c2ae965317e717c8670015c257f0e4a9a276d306c30d68d114"},
		{"parameterized", with("stream:stride=128", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo:badscore=5,rr=64")
			o.L1PF = prefetch.MustSpec("stride:dist=8")
		}), "05f06c1db1702f197b452cd0bb92211403f5ab993e3bf40912763a491a082c55"},
		// Non-canonical spellings hash like their canonical forms: a size
		// in another unit, an all-ones weights list, an upper-case
		// prefetcher name and key that never went through ParseSpec.
		{"size spelling", with("gups:footprint=64MB", nil), "80471ed14279f2ca79b8df8fd267d8257eff76f45856da9c0a386134661d52b8"},
		{"implicit weights", with("mix:gens=stream+pchase,weights=1+1", nil), "b7785b07a2b180712c0dcb44060c573f2a34791046e8cc25334fcc9a0ebc505e"},
		{"unfolded prefetcher", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "BO", Params: map[string]string{"BadScore": "5"}}
		}), "fb6c8fb9bc0c6ca4cc7e225f840bcd2d72b4543f76cbfad55815553c328669f4"},
		// Keyed by the trace's content hash, so the temp path is invisible.
		{"file spec", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
		}), "718ffe7fc9b3852835658969897d4670869199321e2b810c3758bb7c4315bf45"},
		{"4-core heterogeneous", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("429.mcf"), trace.MustSpec("gups:footprint=128mb"),
				trace.MustSpec("stream:stride=128"), trace.MustSpec("459.GemsFDTD"),
			}
			o.Cores, o.Page = 4, mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}), "f8ba84530133978f9e9f8598d6b334a52a46c5734b77dd5275731edb3cdc0833"},
		{"duel with quoted sub-specs", with("462.libquantum", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=multi.minscore~6,period=4096")
		}), "e2c6e04f3d82bd53187f44d6fb1316eafc61a514590148b030d946096812803d"},
		{"warmed run", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo")
			o.Warmup, o.Instructions = 20_000, 40_000
		}), "38d5aa812ff7b0c434dbbd463b0bbbd007a36dc460d3e963e343ab4ae0050f55"},
		// A spec the registry refuses still hashes, syntactically
		// canonicalized (folded name, lowercased key).
		{"unregistered prefetcher", with("429.mcf", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "Warp-Drive", Params: map[string]string{"X": "1"}}
		}), "fe9f3c2d06df17d485dbac8e3fe86553188afcf132c4e177a21571af14b1dea4"},
	}
	for _, c := range cases {
		if got := OptionsHash(c.o); got != c.want {
			t.Errorf("%s: OptionsHash = %s, want %s", c.name, got, c.want)
		}
	}
}
