package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// TestResultDigests pins the SHA-256 of json.Marshal(Result) for a handful of
// short runs, every byte of it: IPC and DRAM traffic, which are all the
// figures read, and every uncore.Stats and dram.Stats counter and BO statistic
// next to them, which only this test and bopbench's sim_digest see. The rows
// cover the DL1 stride prefetcher on and off; 1, 2 and 4 cores; 4KB and 4MB
// pages; the nextline, bo and sbp L2 prefetchers; and a warmed run restored
// from its own snapshot. A change that means to leave the model alone must
// leave every digest alone; one that moves a counter on purpose re-pins the
// rows it moves and says why.
func TestResultDigests(t *testing.T) {
	rows := []struct {
		name string
		opts func(o *engine.Options)
		want string
	}{
		{name: "mcf-stride-nextline-1core-4KB", opts: func(*engine.Options) {},
			want: "0013f439677e95333054562b006700f2ac539da71447c00ac05e1cb2b7db75d9"},
		{name: "mcf-none-bo-1core-4KB", opts: func(o *engine.Options) {
			o.L1PF = prefetch.MustSpec("none")
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "e732ae091cfa05a208bff96b2ddd53ef512392c82cecd0e7010fdd53a3b4abcc"},
		{name: "milc-stride-sbp-2core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("433.milc")}
			o.Cores = 2
			o.Page = mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}, want: "4ded8b0e345cdbd5ca2cf838defbe2fd54b26a8bb9289b2f45847a4f73359397"},
		{name: "mcf-stride-bo-4core-4KB", opts: func(o *engine.Options) {
			o.Cores = 4
			o.Instructions = 10_000
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "0a267b4cc09b9fb90cd2f7d5b55b738a1e8120d0c8f63cdc6bcedd83158a501a"},
		{name: "gups-none-nextline-4core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("gups:footprint=8mb")}
			o.Cores = 4
			o.Page = mem.Page4M
			o.Instructions = 10_000
			o.L1PF = prefetch.MustSpec("none")
		}, want: "0e9dbca68c44feb559f9f45d48dad152faf0b8b465da94d3942b90079eb19b77"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := engine.DefaultOptions("429.mcf")
			o.Instructions = 20_000
			row.opts(&o)
			if got := resultDigest(t, runStraight(t, o)); got != row.want {
				t.Errorf("Result digest %s, pinned %s", got, row.want)
			}
		})
	}
	t.Run("milc-stride-bo-warmed-restored", func(t *testing.T) {
		o := warmed("433.milc")
		o.L2PF = prefetch.MustSpec("bo")
		r, _ := runCheckpointed(t, o)
		if got, want := resultDigest(t, r), "b2dbc348af9248fbc2ff9f027fdcb6404e0beb85f194a37942a4382f92e923fa"; got != want {
			t.Errorf("Result digest %s, pinned %s", got, want)
		}
	})
}

// resultDigest is the hex SHA-256 of r's JSON encoding.
func resultDigest(t *testing.T, r engine.Result) string {
	t.Helper()
	sum := sha256.Sum256(resultJSON(t, r))
	return hex.EncodeToString(sum[:])
}
