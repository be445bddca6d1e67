package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// skipRow is one configuration of the skip-ahead equivalence suite.
type skipRow struct {
	name string
	opts func(*engine.Options)
	// minSkipped is the share of the run's cycles that must be skipped, so
	// a row that exists to cross blocked spans cannot silently stop doing so.
	minSkipped float64
	// budget, when non-zero, cuts every seventh jump longer than it short:
	// the run is stepped with a budget that ends inside the skipped span, and
	// a Snapshot and a deep digest are taken right there, with the cores
	// mid-stall. The per-cycle run must show the same at every one of those
	// cycles.
	budget uint64
	// wantStoreStalls requires core 0's dispatch to be stalled on a store at
	// some engine decision of the skipping run (in a row whose every memory
	// instruction is a store).
	wantStoreStalls bool
}

// midRun is what a run showed when it was stopped at a cycle.
type midRun struct {
	cycle            uint64
	snapshot, digest string
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSkipAheadEquivalence is the event-driven engine's correctness
// harness: every run must produce byte-identical results whether the engine
// skips over no-event spans (the default) or ticks every cycle
// (SetSkipAhead(false)). Skip-ahead is a pure scheduling optimization — any
// divergence here means a component's NextEvent underreports a cycle with
// side effects, or a skipped span is undercharged (AccountIdle for the
// sampled occupancies, the one charge a skip owes). Result JSON cannot see
// all of what a skipped retry must leave alone, so every row also compares
// the machine's deep digest: TLB stamps and clocks, and the stride
// prefetcher. A 2-core heterogeneous mix runs under every registered L2
// prefetcher; the other rows are where stalls dominate: a memory-bound core
// behind a full L2 fill queue (alone, without late promotion, across the
// warmup barrier), and cores retrying against full MSHRs beside thrashing
// satellites (the benchmark's quad-contended shape; on 4MB pages; without a
// DL1 prefetcher; with a store as the refused instruction; stopped and read
// in the middle of a stall).
func TestSkipAheadEquivalence(t *testing.T) {
	names := prefetch.L2Names()
	if len(names) == 0 {
		t.Fatal("no registered L2 prefetchers")
	}
	var rows []skipRow
	for _, name := range names {
		rows = append(rows, skipRow{name: name, opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{
				trace.MustSpec("gups:footprint=8mb"),
				trace.MustSpec("stream:stride=128"),
			}
			o.Cores = 2
			o.L2PF = prefetch.MustSpec(name)
		}})
	}
	mcfBO := func(o *engine.Options) {
		o.Workloads = []trace.Spec{trace.MustSpec("429.mcf")}
		o.L2PF = prefetch.MustSpec("bo")
	}
	quad := func(o *engine.Options) {
		mcfBO(o)
		o.Cores = 4
		o.Instructions = 10_000
	}
	rows = append(rows,
		skipRow{name: "mcf-bo-1core", opts: mcfBO, minSkipped: 0.75},
		skipRow{name: "mcf-bo-4core-satellites", opts: quad, minSkipped: 0.6},
		skipRow{name: "mcf-nextline-no-late-promotion", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("429.mcf")}
			o.LatePromote = false
		}, minSkipped: 0.75},
		skipRow{name: "mcf-bo-across-warmup-barrier", opts: func(o *engine.Options) {
			mcfBO(o)
			o.Warmup = 20_000
		}, minSkipped: 0.75},
		skipRow{name: "mcf-bo-2core-4MB", opts: func(o *engine.Options) {
			mcfBO(o)
			o.Cores = 2
			o.Page = mem.Page4M
			o.Instructions = 25_000
		}, minSkipped: 0.6},
		skipRow{name: "mcf-bo-4core-no-DL1-prefetcher", opts: func(o *engine.Options) {
			quad(o)
			o.L1PF = prefetch.MustSpec("none")
		}, minSkipped: 0.6},
		skipRow{name: "stores-2core", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("gups:footprint=64mb,storepct=100")}
			o.Cores = 2
			o.Instructions = 10_000
		}, minSkipped: 0.6, wantStoreStalls: true},
		skipRow{name: "mcf-bo-4core-read-mid-stall", opts: quad, minSkipped: 0.6, budget: 5},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := engine.DefaultOptions("")
			o.Instructions = 40_000
			row.opts(&o)

			// run steps the simulation one engine decision at a time — one
			// jump or one ticked cycle — which is what Run does in larger
			// quanta, and counts the cycles that were jumped over and the
			// decisions at which core 0's dispatch was stalled on a store.
			// With skip on it stops inside every jump longer than
			// row.budget; with skip off it stops at the cycles it is given.
			var storeStalls uint64
			run := func(skip bool, stops []midRun) (s *engine.Simulation, stopped []midRun, skippedShare float64) {
				s, err := engine.New(o)
				if err != nil {
					t.Fatal(err)
				}
				s.SetSkipAhead(skip)
				var skipped, long uint64
				for done := false; !done; {
					if skip && row.wantStoreStalls && s.PendingStoreRefused(0) {
						storeStalls++
					}
					n, stop := uint64(1), false
					if ne := s.NextEventCycle(); skip && ne > s.Cycles() && ne != ^uint64(0) {
						n = ne - s.Cycles()
						if row.budget > 0 && n > row.budget {
							if long++; long%7 == 0 {
								n, stop = row.budget, true
							}
						}
						skipped += n
					}
					if done, err = s.Step(n); err != nil {
						t.Fatal(err)
					}
					if !skip && len(stops) > len(stopped) && stops[len(stopped)].cycle == s.Cycles() {
						stop = true
					}
					if stop {
						stopped = append(stopped, midRun{s.Cycles(), mustJSON(t, s.Snapshot()), mustJSON(t, s.DeepDigest())})
					}
				}
				return s, stopped, float64(skipped) / float64(s.Cycles())
			}

			on, stops, share := run(true, nil)
			off, oracleStops, _ := run(false, stops)
			if a, b := mustJSON(t, on.Snapshot()), mustJSON(t, off.Snapshot()); a != b {
				t.Errorf("skip-ahead changed the result\nwith skip:    %s\nwithout skip: %s", a, b)
			}
			if a, b := mustJSON(t, on.DeepDigest()), mustJSON(t, off.DeepDigest()); a != b {
				t.Errorf("skip-ahead changed the machine below the result\nwith skip:    %s\nwithout skip: %s", a, b)
			}
			if share < row.minSkipped {
				t.Errorf("%.0f%% of the cycles were skipped, want at least %.0f%%: the row no longer crosses stalled spans",
					100*share, 100*row.minSkipped)
			}
			t.Logf("%.0f%% of cycles skipped", 100*share)
			if row.wantStoreStalls {
				if storeStalls == 0 {
					t.Error("core 0's dispatch was never stalled on a store: the row no longer has a store as the refused instruction")
				}
				t.Logf("core 0's dispatch stalled on a store at %d engine decisions", storeStalls)
			}
			if row.budget == 0 {
				return
			}
			if len(stops) < 100 || len(oracleStops) != len(stops) {
				t.Fatalf("stopped inside %d jumps (the per-cycle run at %d of those cycles), want at least 100", len(stops), len(oracleStops))
			}
			for i, got := range stops {
				if want := oracleStops[i]; got != want {
					t.Fatalf("stopped at cycle %d, inside a jump, the machine read\n%s\n%s\nand ticked there every cycle\n%s\n%s",
						got.cycle, got.snapshot, got.digest, want.snapshot, want.digest)
				}
			}
			t.Logf("read inside %d jumps", len(stops))
		})
	}
}

// TestRefusalMemoEquivalence is the same harness for the uncore's refusal
// memos: a contended 4-core run (the benchmark's quad-contended shape: one
// 429.mcf and three default satellites) must produce byte-identical results
// under every registered L2 prefetcher whether stalled attempts are answered
// from a memo or evaluated in full every cycle. On the bo row, which is the
// benchmark's configuration, each retry loop must answer at least
// minMemoHits attempts from its memo (it answers about 28 k Demand calls,
// 29 k demand-queue heads and 14 k prefetch-queue heads), so the suite cannot
// silently stop exercising the paths. It must also answer at least
// minMemoShare of the refused queue-head attempts: a memo compares only the
// versions its refusal's cause reads, which answers 75.9 % of them; keyed on
// every version whatever the cause it answers 47.2 %, with only the full L2
// fill queue's narrower key 60.0 %, and with only the full L3 fill queue's
// 64.0 %. The floor leaves six points for the stream to drift and still fails
// when a cause key is lost, whatever a timing says.
func TestRefusalMemoEquivalence(t *testing.T) {
	const minMemoHits, minMemoShare = 5000, 0.70
	for _, name := range prefetch.L2Names() {
		t.Run(name, func(t *testing.T) {
			o := engine.DefaultOptions("429.mcf")
			o.Cores = 4
			o.Instructions = 10_000
			o.L2PF = prefetch.MustSpec(name)
			run := func(memos bool) (result []byte, s *engine.Simulation) {
				s, err := engine.New(o)
				if err != nil {
					t.Fatal(err)
				}
				s.SetRefusalMemos(memos)
				res, err := s.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				b, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				return b, s
			}
			on, s := run(true)
			off, oracle := run(false)
			if !bytes.Equal(on, off) {
				t.Errorf("refusal memos changed the result\nwith memos:    %s\nwithout memos: %s", on, off)
			}
			if n := oracle.RefusalMemoHits(); n.Demand+n.Head+n.Pref > 0 {
				t.Errorf("the run with memos off answered %d / %d / %d attempts from one: it is no oracle", n.Demand, n.Head, n.Pref)
			}
			n := s.RefusalMemoHits()
			share := float64(n.Head+n.Pref) / float64(n.Head+n.Pref+n.HeadMisses+n.PrefMisses)
			t.Logf("answered from a memo: %d Demand calls, %d demand-queue heads, %d prefetch-queue heads; %d and %d queue-head refusals evaluated in full (%.1f%% answered)",
				n.Demand, n.Head, n.Pref, n.HeadMisses, n.PrefMisses, 100*share)
			if name == "bo" && min(n.Demand, n.Head, n.Pref) < minMemoHits {
				t.Errorf("%d / %d / %d attempts were answered from a memo, want at least %d each: the row no longer runs on the cheap paths", n.Demand, n.Head, n.Pref, minMemoHits)
			}
			if name == "bo" && share < minMemoShare {
				t.Errorf("%.1f%% of the refused queue-head attempts were answered from a memo, want at least %.0f%%: a memo no longer keys on its refusal's cause", 100*share, 100*minMemoShare)
			}
		})
	}
}
