package experiments

import (
	"bytes"
	"path/filepath"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// TestOptionsHashGolden pins result-cache keys to literal values: a
// refactor of the spec layer, of Options.Normalized or of OptionsHash that
// moves any of them orphans every stored result, and nothing else in the suite would notice (the
// other key tests compare keys with each other, never with the past). A
// deliberate key change — an engine.ModelVersion bump, a new Options field
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
		{"bare name", with("429.mcf", nil), "1b487ff51c44aacb9dddc77c68c7b69eca393ad727ee4699a24d32d2c48a9bbb"},
		{"parameterized", with("stream:stride=128", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo:badscore=5,rr=64")
			o.L1PF = prefetch.MustSpec("stride:dist=8")
		}), "5c4475e00a1e4fee0172f82f0add9b311f0a0f3dcf7b0544df2632c390534ddc"},
		// Non-canonical spellings hash like their canonical forms: a size
		// in another unit, an all-ones weights list, an upper-case
		// prefetcher name and key that never went through ParseSpec.
		{"size spelling", with("gups:footprint=64MB", nil), "b7eca9dbbfe82b8fd8a60eea83355691e8199d042156613ebb6708e4ca4c628e"},
		{"implicit weights", with("mix:gens=stream+pchase,weights=1+1", nil), "ce8b973da07dfa1ba827799b892b28beb541edbb8ddb581a0dbd765e9d49309e"},
		{"unfolded prefetcher", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "BO", Params: map[string]string{"BadScore": "5"}}
		}), "5e753f81ac5a8b155be4fdaed21064d94cb871b740761c52cd4968d1416d12c9"},
		// Keyed by the trace's content hash, so the temp path is invisible.
		{"file spec", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
		}), "4ecfeb9e3b5bf16093cf583af7cff907667e0b13fcd89e0d83a97df6200c7b8f"},
		{"4-core heterogeneous", with("", func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("429.mcf"), trace.MustSpec("gups:footprint=128mb"),
				trace.MustSpec("stream:stride=128"), trace.MustSpec("459.GemsFDTD"),
			}
			o.Cores, o.Page = 4, mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}), "33dfedf6c4fe2bf397e9a1076dcb6e2f74e387af8e6d05e310b13b582a973c92"},
		{"duel with quoted sub-specs", with("462.libquantum", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("duel:a=bo.degree~2,b=multi.minscore~6,period=4096")
		}), "03e5f11773ccf151d22a02b964d9d3cd6adfcac19f439370e506821d9200cd81"},
		{"warmed run", with("433.milc", func(o *engine.Options) {
			o.L2PF = prefetch.MustSpec("bo")
			o.Warmup, o.Instructions = 20_000, 40_000
		}), "1a8562a98ab8ec66a7d82b0bc00faa2f026e5eab26a9a7c8d2f1e0feeaf3baa0"},
		// A spec the registry refuses still hashes, syntactically
		// canonicalized (folded name, lowercased key).
		{"unregistered prefetcher", with("429.mcf", func(o *engine.Options) {
			o.L2PF = prefetch.Spec{Name: "Warp-Drive", Params: map[string]string{"X": "1"}}
		}), "a9365a662984588d5c8d9a3163387e43d7b8c95a10534be91bc3bb8adfea44ca"},
	}
	for _, c := range cases {
		key, opts := runKey(c.o)
		if key != c.want {
			t.Errorf("%s: OptionsHash = %s, want %s", c.name, key, c.want)
		}
		// What a record stores is the options' own encoding, path form for
		// a file workload, whatever form the key hashes.
		if want := mustMarshal(c.o.Normalized()); !bytes.Equal(opts, want) {
			t.Errorf("%s: record options\n%s\nwant\n%s", c.name, opts, want)
		}
	}
}
