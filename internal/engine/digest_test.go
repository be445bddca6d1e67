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
// pages; the nextline, bo and sbp L2 prefetchers; a store stream whose dirty
// victims reach DRAM, so the write-back path is pinned too; and a warmed run
// restored from its own snapshot. A change that means to leave the model alone must
// leave every digest alone; one that moves a counter on purpose re-pins the
// rows it moves and says why.
func TestResultDigests(t *testing.T) {
	rows := []struct {
		name string
		opts func(o *engine.Options)
		want string
		// writesBack marks the row that must keep writing lines back to
		// DRAM, the one path no other row or golden result reaches.
		writesBack bool
	}{
		{name: "mcf-stride-nextline-1core-4KB", opts: func(*engine.Options) {},
			want: "3f1a129413127f5c62de357db78260d9c070986b0ea4bc41c6211a7882b14334"},
		{name: "mcf-none-bo-1core-4KB", opts: func(o *engine.Options) {
			o.L1PF = prefetch.MustSpec("none")
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "ca21e9560c788e438a29bc5a839800364dbfd95d5ef6772cbe45e9054466e847"},
		{name: "milc-stride-sbp-2core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("433.milc")}
			o.Cores = 2
			o.Page = mem.Page4M
			o.L2PF = prefetch.MustSpec("sbp")
		}, want: "d22765f4cb7558825447a062bf9a52f1fb52defcae8738b11a4a7c4448ea007d"},
		{name: "mcf-stride-bo-4core-4KB", opts: func(o *engine.Options) {
			o.Cores = 4
			o.Instructions = 10_000
			o.L2PF = prefetch.MustSpec("bo")
		}, want: "85e4de994b44e9e1827514cd41150eae6b949bc839d7642db142ef878c4d2514"},
		{name: "gups-none-nextline-4core-4MB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("gups:footprint=8mb")}
			o.Cores = 4
			o.Page = mem.Page4M
			o.Instructions = 10_000
			o.L1PF = prefetch.MustSpec("none")
		}, want: "e4667b34ec198730019050a1bdab19ff38e83b918b1393df1266ef33b934a882"},
		{name: "stores-writeback-1core-4KB", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("stream:storepct=100,memper1000=900,footprint=64mb")}
			o.Instructions = 200_000
		}, want: "43a31635d0e81edb691c6ed95ae168d1fb7d88adc0823308e5f22e69f220e476", writesBack: true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := engine.DefaultOptions("429.mcf")
			o.Instructions = 20_000
			row.opts(&o)
			r := runStraight(t, o)
			if row.writesBack && r.DRAM.Writes == 0 {
				t.Errorf("no line written back to DRAM (%d reads)", r.DRAM.Reads)
			}
			if got := resultDigest(t, r); got != row.want {
				t.Errorf("Result digest %s, pinned %s", got, row.want)
			}
		})
	}
	t.Run("milc-stride-bo-warmed-restored", func(t *testing.T) {
		o := warmed("433.milc")
		o.L2PF = prefetch.MustSpec("bo")
		r, _ := runCheckpointed(t, o)
		if got, want := resultDigest(t, r), "48dbdb74226b946112ac42501e987498634fc429e52971dd1ba7cbd57d002ac5"; got != want {
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

// TestSnapshotDigest pins the SHA-256 of one warmed 2-core snapshot, every
// byte of it: both cores' DL1 and L2 lines and the shared L3's, with their
// dirty flags and owner cores, the replacement stamps, the TLBs, DRAM and
// the cores. (A warmup leg runs with no prefetcher, so no line carries a
// prefetch bit; cache's TestCacheStateRoundTrip covers that flag.) A change
// to how the machine holds its state in memory (a cache line packed into one
// word, say) must leave it alone; a change that moves it on purpose bumps
// engine.SnapshotVersion and re-pins it. Version 12 re-pinned it: the same
// state, written as the hand-written record instead of gob (143,356 bytes
// before, 140,141 now).
func TestSnapshotDigest(t *testing.T) {
	o := warmed("429.mcf")
	o.Cores = 2
	s, snap := warmupLeg(t, o)
	s.Close()
	sum := sha256.Sum256(snap)
	if got, want := hex.EncodeToString(sum[:]), "019e978372b1d07beb59a5a08dac2c60afacf9d212c4e33e15c4ccc3f7abb1eb"; got != want {
		t.Errorf("snapshot digest %s (%d bytes), pinned %s", got, len(snap), want)
	}
}
