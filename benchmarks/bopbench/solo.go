package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"bopsim/internal/engine"
)

// rep is one timed operation of a workload: one simulation, or one render
// of the sweep targets.
type rep struct {
	WallS float64 `json:"wall_s"`
	// Slowdown is the host's slowdown against nominal around this rep (see
	// hostspeed.go); 1 for sweeps, which report raw wall.
	Slowdown float64 `json:"slowdown"`
	Sims     int     `json:"sims"`
	Instr    uint64  `json:"instr"` // measured core-0 instructions the rep simulated or delivered
}

// seconds is the rep's wall at nominal host speed.
func (r rep) seconds() float64 { return r.WallS / r.Slowdown }

// childResult is what a measuring child reports to its parent.
type childResult struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Digest is the sim_digest: SHA-256 over the canonical JSON of the
	// engine.Result (single simulations) or the rendered table bytes
	// (sweeps). Every rep must reproduce it.
	Digest    string  `json:"digest"`
	Reps      []rep   `json:"reps,omitempty"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Layer holds the per-layer metrics of a traced child, AccountedShare
	// how much of the traced loop's calibrated wall the layers' self times
	// explain (single simulations only).
	Layer          map[string]float64 `json:"layer,omitempty"`
	AccountedShare float64            `json:"accounted_share,omitempty"`
}

func (c *childResult) fail(format string, args ...any) {
	c.Failed++
	if len(c.Failures) < 8 {
		c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
	}
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestResult(res engine.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("bopbench: result not encodable: %v", err)) // Result is plain data
	}
	return digestBytes(b)
}

// simulate is the operation the single-simulation workloads time:
// engine.New + Run (which ends in Snapshot).
func simulate(o engine.Options) (res engine.Result, newWall, wall time.Duration, err error) {
	start := time.Now()
	s, err := engine.New(o)
	newWall = time.Since(start)
	if err != nil {
		return engine.Result{}, newWall, newWall, err
	}
	res, err = s.Run(context.Background())
	return res, newWall, time.Since(start), err
}

// measureSolo is the untraced pass of a single-simulation workload: one
// untimed rep lets the heap grow and fixes the reference digest, then reps
// run back to back from one goroutine until the deadline.
func measureSolo(in inputs, ready func()) childResult {
	var out childResult
	ref, _, _, err := simulate(*in.Solo)
	if err != nil {
		out.Attempted = 1
		out.fail("warm-up rep: %v", err)
		ready()
		return out
	}
	out.Digest = digestResult(ref)
	settle()
	ready()
	deadline := time.Now().Add(time.Duration(in.Seconds * float64(time.Second)))
	before := hostSlowdown()
	for len(out.Reps) < in.MinReps || time.Now().Before(deadline) {
		res, _, wall, err := simulate(*in.Solo)
		after := hostSlowdown()
		out.Attempted++
		if err != nil {
			out.fail("rep %d: %v", len(out.Reps), err)
			break
		}
		if digestResult(res) != out.Digest {
			out.fail("rep %d: result differs from rep 0", len(out.Reps))
		}
		out.Reps = append(out.Reps, rep{WallS: wall.Seconds(), Slowdown: (before + after) / 2, Sims: 1, Instr: res.Instructions})
		before = after
		settle()
	}
	return out
}

// settle completes a collection outside the timed interval: it ends set-up
// and follows every timed rep, so each rep starts from a collected heap, as
// one simulation or one render per process would. Without it peak_rss_mb
// depends on where in the collector's cycle a rep happens to start and
// spreads by 9-13% between processes.
func settle() { runtime.GC() }

// allocDelta reports mallocs and allocated MB since before.
func allocDelta(before runtime.MemStats) (allocs, mb float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// traceSolo is the traced pass of a single-simulation workload: one
// untraced reference rep, then the decorated replica, which must agree with
// it exactly.
func traceSolo(in inputs, rec *recorder) childResult {
	out := childResult{Layer: map[string]float64{}}
	o := *in.Solo

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ref, newWall, refWall, err := simulate(o)
	allocs, allocMB := allocDelta(ms)
	out.Attempted = 2 // the reference simulation and its replica
	if err != nil {
		out.fail("reference simulation: %v", err)
		return out
	}
	out.Digest = digestResult(ref)

	captureCap := 0
	if in.Workload.Name == "solo-membound" {
		captureCap = 2_000_000 / in.KernelScale
	}
	start := time.Now()
	rp, err := newReplica(o, captureCap)
	if err != nil {
		out.fail("replica: %v", err)
		return out
	}
	loopStart := time.Now()
	err = rp.run()
	end := time.Now()
	if err != nil {
		out.fail("replica: %v", err)
		return out
	}
	root := rec.interval("simulation", 0, 0, 0, start, end)
	rec.interval("replica.build", root, 0, 0, start, loopStart)
	rp.foldSpans(rec, root, 0, loopStart, end)
	got := rp.stats()
	if !got.equal(statsOf(ref)) {
		out.fail("replica disagrees with engine.Run: replica %d cycles / %d instructions, engine %d / %d",
			got.Cycles, got.Instructions, ref.Cycles, ref.Instructions)
	}

	lt := rp.times()
	l := out.Layer
	l["trace.next_calls"] = float64(rp.next.calls)
	l["trace.next_ns_per_call"] = perCall(lt.Trace, rp.next.calls)
	l["trace.share"] = lt.Trace / lt.Loop
	l["cpu.cycle_calls"] = float64(rp.cycle.calls)
	l["cpu.cycle_self_ns_per_call"] = perCall(lt.CPU, rp.cycle.calls)
	l["cpu.share"] = lt.CPU / lt.Loop
	l["uncore.tick_calls"] = float64(rp.tick.calls)
	l["uncore.tick_self_ns_per_call"] = perCall(lt.Uncore, rp.tick.calls)
	l["uncore.share"] = lt.Uncore / lt.Loop
	l["prefetch.on_access_calls"] = float64(rp.l2Access.calls)
	l["prefetch.on_access_ns_per_call"] = perCall(lt.L2Access, rp.l2Access.calls)
	l["prefetch.on_fill_calls"] = float64(rp.l2Fill.calls)
	l["prefetch.on_fill_ns_per_call"] = perCall(lt.L2Fill, rp.l2Fill.calls)
	l["prefetch.issued"] = float64(rp.issued)
	l["prefetch.share"] = lt.prefetch() / lt.Loop
	l["prefetch.l1_query_ns_per_call"] = perCall(lt.L1Query, rp.l1Query.calls)
	l["prefetch.l1_update_ns_per_call"] = perCall(lt.L1Update, rp.l1Update.calls)
	l["engine.ticked_cycles"] = float64(rp.ticked)
	l["engine.skipped_cycles"] = float64(rp.skipped)
	l["engine.skip_jumps"] = float64(rp.jumps)
	l["engine.veto_cpu_cycles"] = float64(rp.vetoCPU)
	l["engine.veto_uncore_cycles"] = float64(rp.vetoUncore)
	l["engine.next_event_ns_per_call"] = perCall(lt.NextEvent, rp.nextEvent.calls)
	l["engine.next_event_share"] = lt.NextEvent / lt.Loop
	l["engine.host_ns_per_ticked_cycle"] = perCall(lt.Loop, int64(rp.ticked))
	l["engine.new_ms"] = millis(newWall)
	l["engine.allocs_per_sim"] = allocs
	l["engine.alloc_mb_per_sim"] = allocMB
	l["engine.trace_overhead_ratio"] = end.Sub(start).Seconds() / refWall.Seconds()
	l["engine.timer_ns"] = rp.cal.cost().Pair
	simCounts(l, []engine.Result{ref})
	out.AccountedShare = lt.accounted() / lt.Loop

	switch in.Workload.Name {
	case "solo-compute":
		if err := traceKernels(l, in, o); err != nil {
			out.fail("trace kernels: %v", err)
		}
	case "solo-membound":
		dramKernels(l, in.KernelScale)
		prefetchKernels(l, rp.capture, o, rp.cal.cost())
	}
	return out
}

// perCall is ns / calls, 0 when nothing was called.
func perCall(ns float64, calls int64) float64 {
	if calls == 0 {
		return 0
	}
	return ns / float64(calls)
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simCounts fills the simulated-event counts of the uncore and DRAM layers,
// summed over the given results. They are exact: the simulator is
// deterministic, so a host-speed change must leave them identical.
func simCounts(l map[string]float64, results []engine.Result) {
	var l2m, l3m, issued, dropped, useful, reads, writes, rowHits uint64
	for _, r := range results {
		l2m += r.Hier.L2Misses
		l3m += r.Hier.L3Misses
		issued += r.Hier.PrefIssued
		dropped += r.Hier.PrefDroppedDup + r.Hier.PrefDroppedTagCheck + r.Hier.PrefCancelled
		useful += r.Hier.L2PrefetchedHits
		reads += r.DRAM.Reads
		writes += r.DRAM.Writes
		rowHits += r.DRAM.RowHits
	}
	share := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	l["uncore.l2_misses"] = float64(l2m)
	l["uncore.l3_misses"] = float64(l3m)
	l["uncore.pref_issued"] = float64(issued)
	l["uncore.pref_dropped"] = float64(dropped)
	l["uncore.pref_useful_share"] = share(useful, issued)
	l["dram.reads"] = float64(reads)
	l["dram.writes"] = float64(writes)
	l["dram.row_hit_share"] = share(rowHits, reads+writes)
}
