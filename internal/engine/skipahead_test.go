package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bopsim/internal/engine"
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
}

// TestSkipAheadEquivalence is the event-driven engine's correctness
// harness: every run must produce byte-identical results whether the engine
// skips over no-event spans (the default) or ticks every cycle
// (SetSkipAhead(false)). Skip-ahead is a pure scheduling optimization — any
// divergence here means a component's NextEvent underreports a cycle with
// side effects, or AccountIdle undercharges a span. A 2-core heterogeneous
// mix runs under every registered L2 prefetcher; the other rows are where
// stalled demand-queue heads dominate (a memory-bound core behind a full L2
// fill queue), with satellites, without late promotion, and across the
// warmup barrier.
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
	rows = append(rows,
		skipRow{name: "mcf-bo-1core", opts: mcfBO, minSkipped: 0.75},
		skipRow{name: "mcf-bo-4core-satellites", opts: func(o *engine.Options) {
			mcfBO(o)
			o.Cores = 4
			o.Instructions = 10_000
		}},
		skipRow{name: "mcf-nextline-no-late-promotion", opts: func(o *engine.Options) {
			o.Workloads = []trace.Spec{trace.MustSpec("429.mcf")}
			o.LatePromote = false
		}, minSkipped: 0.75},
		skipRow{name: "mcf-bo-across-warmup-barrier", opts: func(o *engine.Options) {
			mcfBO(o)
			o.Warmup = 20_000
		}, minSkipped: 0.75},
	)
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			o := engine.DefaultOptions("")
			o.Instructions = 40_000
			row.opts(&o)

			// run steps the simulation one engine decision at a time — one
			// jump or one ticked cycle — which is what Run does in larger
			// quanta, and counts the cycles that were jumped over.
			run := func(skip bool) (result []byte, skippedShare float64) {
				s, err := engine.New(o)
				if err != nil {
					t.Fatal(err)
				}
				s.SetSkipAhead(skip)
				var skipped uint64
				for done := false; !done; {
					n := uint64(1)
					if ne := s.NextEventCycle(); skip && ne > s.Cycles() && ne != ^uint64(0) {
						n = ne - s.Cycles()
						skipped += n
					}
					if done, err = s.Step(n); err != nil {
						t.Fatal(err)
					}
				}
				b, err := json.Marshal(s.Snapshot())
				if err != nil {
					t.Fatal(err)
				}
				return b, float64(skipped) / float64(s.Cycles())
			}

			skipOn, share := run(true)
			skipOff, _ := run(false)
			if !bytes.Equal(skipOn, skipOff) {
				t.Errorf("skip-ahead changed the result\nwith skip:    %s\nwithout skip: %s", skipOn, skipOff)
			}
			if share < row.minSkipped {
				t.Errorf("%.0f%% of the cycles were skipped, want at least %.0f%%: the row no longer crosses stalled spans",
					100*share, 100*row.minSkipped)
			}
			t.Logf("%.0f%% of cycles skipped", 100*share)
		})
	}
}

// TestRefusalMemoEquivalence is the same harness for the uncore's refusal
// memos: a contended 4-core run (the benchmark's quad-contended shape: one
// 429.mcf and three default satellites) must produce byte-identical results
// under every registered L2 prefetcher whether stalled attempts are answered
// from a memo or evaluated in full every cycle. On the bo row, which is the
// benchmark's configuration, at least 80 % of each retry loop's attempts must
// be memo hits, so the suite cannot silently stop exercising the path.
func TestRefusalMemoEquivalence(t *testing.T) {
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
			if d, h, p := oracle.RefusalMemoShares(); d > 0 || h > 0 || p > 0 {
				t.Errorf("the run with memos off answered %.0f%% / %.0f%% / %.0f%% of its attempts from one: it is no oracle", 100*d, 100*h, 100*p)
			}
			demand, head, pref := s.RefusalMemoShares()
			t.Logf("answered from a memo: %.0f%% of Demand calls, %.0f%% of demand-head attempts, %.0f%% of prefetch-head attempts",
				100*demand, 100*head, 100*pref)
			if name == "bo" && (demand < 0.8 || head < 0.8 || pref < 0.8) {
				t.Errorf("memo shares %.0f%% / %.0f%% / %.0f%%, want at least 80%% each: the row no longer runs on memos", 100*demand, 100*head, 100*pref)
			}
		})
	}
}
