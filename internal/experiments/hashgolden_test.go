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
		{"bare name", with("429.mcf", nil), "bb09c3042a9b85d87bd0628f7158e20b3922191be3319b9880a2ed87763515e3"},
		{"parameterized", with("stream:stride=128", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo:badscore=5,rr=64")
			o.L1PF = prefetch.MustSpec("stride:dist=8")
		}), "6cb5f9cfa4e24017a6a54a215badb95a1b629fff33c99a4ac41b9f9f2089797f"},
		// Non-canonical spellings hash like their canonical forms: a size
		// in another unit, an all-ones weights list, an upper-case
		// prefetcher name and key that never went through ParseSpec.
		{"size spelling", with("gups:footprint=64MB", nil), "4beeb318611ea56715825e2fdf16ccff7291fab271271c5dbf96cb5b0eba0240"},
		{"implicit weights", with("mix:gens=stream+pchase,weights=1+1", nil), "22d900abe453ea89f37a36425d9ee63d11ee54819e54d0c33dcada33d95193a6"},
		{"unfolded prefetcher", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "BO", Params: map[string]string{"BadScore": "5"}}
		}), "aad59f972de54a395f322c3597b45565508672d1126620013b2f2f0a7900c9fa"},
		// Keyed by the trace's content hash, so the temp path is invisible.
		{"file spec", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
		}), "60d74d7d9946a04818634e9e147115f83221078bb52c99fa0e6954d39e7a863f"},
		{"4-core heterogeneous", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("429.mcf"), trace.MustSpec("gups:footprint=128mb"),
				trace.MustSpec("stream:stride=128"), trace.MustSpec("459.GemsFDTD"),
			}
			o.Cores, o.Page = 4, mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}), "044fbc02546358a6cb97798254a5fdfad736a3d702aaf6436e75b56f19335d46"},
		{"duel with quoted sub-specs", with("462.libquantum", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=multi.minscore~6,period=4096")
		}), "a0fb5579ca780758cebdf42fe1623caa320056ea93c07f36b6ff060f28e2255a"},
		{"warmed run", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo")
			o.Warmup, o.Instructions = 20_000, 40_000
		}), "ceda540751c0d4388e838b8f489ed481f24f74de1184da3e7b4ca4e3aebed09f"},
		// A spec the registry refuses still hashes, syntactically
		// canonicalized (folded name, lowercased key).
		{"unregistered prefetcher", with("429.mcf", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "Warp-Drive", Params: map[string]string{"X": "1"}}
		}), "9927f2dae2852ab6f8ab7666d3ad0b17a326c73d0b32118c7ef1cb95f823a0d7"},
	}
	for _, c := range cases {
		if got := OptionsHash(c.o); got != c.want {
			t.Errorf("%s: OptionsHash = %s, want %s", c.name, got, c.want)
		}
	}
}
