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
			want: "a02260cfe1f05f9122cafbcbe8cd351d8090adc9654cea7e7594ce6f573a4bb5"},
		{name: "mcf-none-bo-1core-4KB", opts: func(o *engine.Options) {
			o.L1PF = prefetch.MustSpec("none")
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "558431225b62491dd1e96208c4cb87a9f30eb8a6d8562ae8f388cc2f1342fb30"},
		{name: "milc-stride-sbp-2core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("433.milc")}
			o.Cores = 2
			o.Page = mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}, want: "3790c9ca94b89f39eb3ccd091554cb8cf153db21d75df1cbc1d1cf1939b00e83"},
		{name: "mcf-stride-bo-4core-4KB", opts: func(o *engine.Options) {
			o.Cores = 4
			o.Instructions = 10_000
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "ec703ccb5a8ab79213b3c1162c0d3dcb49f41c0b1e5aa1314da39a93978283f9"},
		{name: "gups-none-nextline-4core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("gups:footprint=8mb")}
			o.Cores = 4
			o.Page = mem.Page4M
			o.Instructions = 10_000
			o.L1PF = prefetch.MustSpec("none")
		}, want: "9604b6951ec3bb7b4cba97873bebd2f41e2aefe4865c1e50ddb267653983a93f"},
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
		if got, want := resultDigest(t, r), "07311cc4b1cc819c927d4d356fda94860ffc2f30c5f7c3a651a3db64d348bcb4"; got != want {
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
