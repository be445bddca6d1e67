package engine_test

import (
	"context"
	"testing"

	"bopsim/internal/cpu"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// opaqueL1 is a DL1 prefetcher behind a decorator that forwards the
// prefetch.L1Prefetcher methods and nothing else, as bopbench's timing
// decorator does: whatever optional interface the wrapped prefetcher
// implements is invisible to the uncore. (Unwrap is for the digest only.)
type opaqueL1 struct{ inner prefetch.L1Prefetcher }

func (p opaqueL1) Name() string                                  { return p.inner.Name() }
func (p opaqueL1) Query(pc uint64, va mem.Addr) (mem.Addr, bool) { return p.inner.Query(pc, va) }
func (p opaqueL1) Update(pc uint64, va mem.Addr)                 { p.inner.Update(pc, va) }
func (p opaqueL1) Unwrap() prefetch.L1Prefetcher                 { return p.inner }

// TestReplicaProtocol guards a driver this package cannot see:
// benchmarks/bopbench/replica.go assembles the machine from the layers'
// public constructors and drives its own copy of Simulation.Step. Its whole
// protocol is Core.NextEvent and Core.Cycle, Hierarchy.NextEvent, AccountIdle
// and Tick — on a jump it tells the uncore and never the cores, which is the
// engine's protocol too. A driver that makes exactly those calls must end on
// the per-cycle engine's machine, down to the deep digest: once with the DL1
// prefetcher behind a decorator that hides prefetch.SettledQuerier (the cores
// then veto every cycle of a dispatch stall), and once without a DL1
// prefetcher, which proves that the cores skip their stalls under the
// replica's calls and still end on the per-cycle machine.
func TestReplicaProtocol(t *testing.T) {
	for _, row := range []struct {
		name, l1pf string
		// minStallSkipped is the share of the cycles that must be skipped
		// while some core's dispatch was running (so: stalled).
		minStallSkipped float64
	}{
		{name: "DL1-prefetcher-behind-a-decorator", l1pf: "stride"},
		{name: "no-DL1-prefetcher", l1pf: "none", minStallSkipped: 0.5},
	} {
		t.Run(row.name, func(t *testing.T) {
			o := engine.DefaultOptions("429.mcf")
			o.Cores = 4
			o.Instructions = 10_000
			o.L2PF = prefetch.MustSpec("bo")
			o.L1PF = prefetch.MustSpec(row.l1pf)

			oracle, err := engine.New(o)
			if err != nil {
				t.Fatal(err)
			}
			oracle.SetSkipAhead(false)
			if _, err := oracle.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			o = oracle.Options() // normalized, as the replica normalizes

			ucfg := uncore.DefaultConfig(o.Cores, o.Page)
			ucfg.L3Policy, ucfg.LatePromotion, ucfg.Seed = o.L3Policy, o.LatePromote, o.Seed
			hier := uncore.New(ucfg,
				func(int) prefetch.L2Prefetcher {
					p, _ := prefetch.NewL2(o.L2PF, o.Page)
					return p
				},
				func(int) prefetch.L1Prefetcher {
					p, _ := prefetch.NewL1(o.L1PF, o.Page)
					if p == nil {
						return nil
					}
					return opaqueL1{p}
				}, nil)
			var cores []*cpu.Core
			for i := 0; i < o.Cores; i++ {
				gen, err := trace.NewGenerator(o.Workloads[i], o.Seed+uint64(i)*7919)
				if err != nil {
					t.Fatal(err)
				}
				cores = append(cores, cpu.New(i, o.CPU, hier, gen))
			}

			const never, quantum = ^uint64(0), 4096
			var now, skipped, stallSkipped uint64
			for done := false; !done; {
				for target := now + quantum; now < target; {
					if done = cores[0].Retired >= o.Instructions; done {
						break
					}
					ne := never
					for _, c := range cores {
						if ne = min(ne, c.NextEvent(now)); ne <= now {
							break
						}
					}
					if ne > now {
						ne = min(ne, hier.NextEvent(now))
					}
					if ne > now && ne != never {
						jump := min(ne, target, o.MaxCycles)
						hier.AccountIdle(jump - now)
						skipped += jump - now
						for _, c := range cores {
							if c.ROBOccupancy() < o.CPU.ROBSize {
								stallSkipped += jump - now
								break
							}
						}
						now = jump
						continue
					}
					for _, c := range cores {
						c.Cycle(now)
					}
					hier.Tick(now)
					now++
					if now >= o.MaxCycles {
						t.Fatalf("wedged after %d cycles", now)
					}
				}
			}

			got, want := mustJSON(t, engine.DigestMachine(now, hier, cores)), mustJSON(t, oracle.DeepDigest())
			if got != want {
				t.Errorf("a driver speaking only the replica's protocol ends on a different machine\nreplica protocol: %s\nper-cycle engine:  %s", got, want)
			}
			share := float64(stallSkipped) / float64(now)
			t.Logf("%d cycles, %d skipped, %.0f%% of all cycles skipped across a stalled dispatch", now, skipped, 100*share)
			if share < row.minStallSkipped {
				t.Errorf("%.0f%% of the cycles were skipped across a stalled dispatch, want at least %.0f%%: the row no longer makes the cores skip their stalls",
					100*share, 100*row.minStallSkipped)
			}
			if row.minStallSkipped == 0 && stallSkipped != 0 {
				t.Errorf("%d cycles were skipped while a core's dispatch was running behind a DL1 prefetcher whose queries the uncore cannot judge settled", stallSkipped)
			}
		})
	}
}
