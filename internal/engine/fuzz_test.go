package engine_test

import (
	"bytes"
	"context"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// fuzzRun decodes FuzzOptions' arguments into a small run: a workload from
// the quick 16, stream, gups or a two-part mix of those; 1 to 4 cores; 4 KB
// or 4 MB pages; an L3 policy; an L2 prefetcher from the registry and the
// stride prefetcher or none at L1, each with its default parameters; late
// promotion on or off; up to 20,000 warmup and 1 to 20,000 measured
// instructions.
func fuzzRun(workload, second, cores, policy, l2 uint8, hugePages, stride, late bool, warmup, n uint16, seed uint64) engine.Options {
	var pool []string
	for _, s := range experiments.QuickBenchmarks() {
		pool = append(pool, s.String())
	}
	pool = append(pool, "stream", "gups")
	w := "mix:gens=" + pool[int(second)%len(pool)] + "+" + pool[int(second)/len(pool)%len(pool)]
	if i := int(workload) % (len(pool) + 1); i < len(pool) {
		w = pool[i]
	}
	o := engine.DefaultOptions(w)
	o.Cores = 1 + int(cores)%4
	if hugePages {
		o.Page = mem.Page4M
	}
	o.L3Policy = [...]string{"LRU", "DRRIP", "5P"}[policy%3]
	names := prefetch.L2Names()
	o.L2PF = prefetch.MustSpec(names[int(l2)%len(names)])
	if !stride {
		o.L1PF = prefetch.MustSpec("none")
	}
	o.LatePromote = late
	o.Warmup = uint64(warmup) % 20_001
	o.Instructions = 1 + uint64(n)%20_000
	o.Seed = seed
	return o
}

// FuzzOptions requires one Result byte string from four ways of running the
// same options: straight; with skip-ahead off, the per-cycle oracle; with
// the hierarchy's refusal memos off, the memo oracle; and, when the run has
// a warmup region, restored from its own barrier snapshot, which the
// restored machine must checkpoint back to byte for byte. Each input runs
// four simulations, so CI gives it a smaller exec count than the other
// targets.
func FuzzOptions(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint8(0), uint8(2), uint8(1), false, true, true, uint16(0), uint16(19_999), uint64(1))
	f.Add(uint8(6), uint8(0), uint8(1), uint8(0), uint8(3), true, true, false, uint16(8_000), uint16(10_000), uint64(7))
	f.Add(uint8(16), uint8(0), uint8(3), uint8(1), uint8(7), false, false, true, uint16(5_000), uint16(4_000), uint64(3))
	f.Add(uint8(17), uint8(0), uint8(2), uint8(2), uint8(0), true, true, true, uint16(12_000), uint16(6_000), uint64(11))
	f.Add(uint8(18), uint8(21), uint8(1), uint8(2), uint8(2), false, true, true, uint16(10_000), uint16(8_000), uint64(5))
	// gups+456.hmmer, one core: gups's random accesses at PC 0x4000 break the
	// stride of hmmer's stream at the same PC, so its stride entry regains
	// confidence from retirements while the stream's next access waits for
	// an MSHR. The refused access asks the DL1 prefetcher nothing, so the
	// Demand memo need not move with the table; a Demand that asked it
	// before the MSHR check would fail this seed against the memo oracle.
	f.Add(uint8(18), uint8(143), uint8(0), uint8(2), uint8(1), false, true, true, uint16(0), uint16(19_999), uint64(1))
	f.Fuzz(func(t *testing.T, workload, second, cores, policy, l2 uint8, hugePages, stride, late bool, warmup, n uint16, seed uint64) {
		o := fuzzRun(workload, second, cores, policy, l2, hugePages, stride, late, warmup, n, seed)
		run := func(name string, s *engine.Simulation) []byte {
			t.Helper()
			defer s.Close()
			r, err := s.Run(context.Background())
			if err != nil {
				t.Fatalf("%s run of %s: %v", name, o.ConfigLabel(), err)
			}
			return resultJSON(t, r)
		}
		build := func(configure func(s *engine.Simulation)) *engine.Simulation {
			t.Helper()
			s, err := engine.New(o)
			if err != nil {
				t.Fatalf("%s %s: %v", o.WorkloadsLabel(), o.ConfigLabel(), err)
			}
			configure(s)
			return s
		}
		want := run("straight", build(func(*engine.Simulation) {}))
		for _, oracle := range []struct {
			name      string
			configure func(s *engine.Simulation)
		}{
			{"skip-ahead off", func(s *engine.Simulation) { s.SetSkipAhead(false) }},
			{"refusal memos off", func(s *engine.Simulation) { s.SetRefusalMemos(false) }},
		} {
			if got := run(oracle.name, build(oracle.configure)); !bytes.Equal(got, want) {
				t.Errorf("%s %s, %s:\n%s\nstraight:\n%s", o.WorkloadsLabel(), o.ConfigLabel(), oracle.name, got, want)
			}
		}
		if o.Warmup == 0 {
			return
		}
		leg, snap := warmupLeg(t, o)
		leg.Close()
		s, err := engine.Restore(snap, o)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := s.Checkpoint(); err != nil || !bytes.Equal(again, snap) {
			t.Errorf("%s %s: the restored machine checkpoints to other bytes than its snapshot (err %v)", o.WorkloadsLabel(), o.ConfigLabel(), err)
		}
		if got := run("restored", s); !bytes.Equal(got, want) {
			t.Errorf("%s %s, restored from its snapshot:\n%s\nstraight:\n%s", o.WorkloadsLabel(), o.ConfigLabel(), got, want)
		}
	})
}
