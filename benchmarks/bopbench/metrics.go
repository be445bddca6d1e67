package main

import (
	"math"
	"sort"
)

// metricDef declares one metric exactly as BENCHMARK.json lists it. The
// tables below are the source of truth; TestBenchmarkJSONMatches keeps
// BENCHMARK.json identical to them.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare calls it regressed (0 on per-layer
	// metrics, which have no bound).
	Bound float64
	// Exact marks a per-layer count that a deterministic simulator must
	// repeat exactly: -compare requires it to match.
	Exact bool
}

// endToEnd is what a user regenerating figures pays for: host time per
// simulated instruction, host time per delivered result, host memory, and
// the time before the first measured operation. Every workload reports all
// four; failures are reported as failed/attempted beside them.
var endToEnd = []metricDef{
	{Name: "sim_instr_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "sims_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// pricedPrefetchers are the registered L2 prefetchers the standalone replay
// kernel prices. The list is fixed so the metric set does not move when a
// registration lands; a name that is no longer registered reads 0.
var pricedPrefetchers = []string{"adapt", "bo", "duel", "multi", "nextline", "none", "offset", "sbp"}

// perLayer lists every per-layer metric, named <module>.<what>. A traced run
// reports each one; a metric the workload does not exercise reads 0 (see
// benchmarks/README.md for which workload owns which metric).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	count := func(n string) metricDef { return metricDef{Name: n, Unit: "count", Better: "lower", Exact: true} }
	lower := func(n, unit string) metricDef { return metricDef{Name: n, Unit: unit, Better: "lower"} }
	higher := func(n, unit string) metricDef { return metricDef{Name: n, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		count("trace.next_calls"), lower("trace.next_ns_per_call", "ns"), lower("trace.share", "share"),
		lower("trace.synth_next_ns", "ns"), lower("trace.file_next_ns", "ns"),

		count("cpu.cycle_calls"), lower("cpu.cycle_self_ns_per_call", "ns"), lower("cpu.share", "share"),

		count("uncore.tick_calls"), lower("uncore.tick_self_ns_per_call", "ns"), lower("uncore.share", "share"),
		count("uncore.l2_misses"), count("uncore.l3_misses"), count("uncore.pref_issued"), count("uncore.pref_dropped"),
		{Name: "uncore.pref_useful_share", Unit: "share", Better: "higher", Exact: true},

		count("dram.reads"), count("dram.writes"),
		{Name: "dram.row_hit_share", Unit: "share", Better: "higher", Exact: true},
		lower("dram.stream_ns_per_read", "ns"), lower("dram.random_ns_per_read", "ns"),

		count("prefetch.on_access_calls"), lower("prefetch.on_access_ns_per_call", "ns"),
		count("prefetch.on_fill_calls"), lower("prefetch.on_fill_ns_per_call", "ns"),
		count("prefetch.issued"), lower("prefetch.share", "share"),
		lower("prefetch.l1_query_ns_per_call", "ns"), lower("prefetch.l1_update_ns_per_call", "ns"),
	}
	for _, name := range pricedPrefetchers {
		defs = append(defs, lower("prefetch."+name+".on_access_ns", "ns"), lower("prefetch."+name+".on_fill_ns", "ns"))
	}
	defs = append(defs,
		count("engine.ticked_cycles"), count("engine.skipped_cycles"), count("engine.skip_jumps"),
		count("engine.veto_cpu_cycles"), count("engine.veto_uncore_cycles"),
		lower("engine.next_event_ns_per_call", "ns"), lower("engine.next_event_share", "share"),
		lower("engine.host_ns_per_ticked_cycle", "ns"),
		lower("engine.new_ms", "ms"), lower("engine.allocs_per_sim", "allocs"), lower("engine.alloc_mb_per_sim", "MB"),
		lower("engine.warmup_leg_ms", "ms"), lower("engine.checkpoint_ms", "ms"), lower("engine.checkpoint_kb", "KB"),
		lower("engine.restore_ms", "ms"), lower("engine.restore_allocs", "allocs"), lower("engine.restore_alloc_mb", "MB"),
		lower("engine.timer_ns", "ns"), lower("engine.trace_overhead_ratio", "x"),

		count("experiments.job_spans"), lower("experiments.job_ms_p50", "ms"),
		lower("experiments.self_share", "share"), lower("experiments.slot_idle_share", "share"),
		higher("experiments.parallel_speedup", "x"),
		lower("experiments.options_hash_us", "us"), lower("experiments.cache_load_us_per_entry", "us"),
		lower("experiments.render_ms_p50", "ms"), lower("experiments.render_ms_p95", "ms"),
		higher("experiments.shared_vs_repeated_speedup", "x"),

		lower("distrib.job_overhead_ms", "ms"), higher("distrib.sweep_sims_per_s", "1/s"),
	)
	return defs
}

// summary is how every timing is reported: median, quartiles and sample
// count. A percentile above the median is reported only where ten samples
// lie beyond it, which only sweep-warm's 300 traced renders satisfy
// (experiments.render_ms_p95).
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of the ascending s by linear interpolation.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sorted(xs)
	if len(s) == 0 {
		return summary{}
	}
	return summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

func median(xs []float64) float64 { return summarize(xs).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}
