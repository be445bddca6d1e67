package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// results is the -out file: one complete measurement, both passes of every
// workload, with the host it was taken on.
type results struct {
	Schema int `json:"schema"`
	// Claim is always null: the benchmark measures, it claims no gain. A
	// change that claims one names a metric and a workload from this file.
	Claim   *string `json:"claim"`
	Model   string  `json:"model"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"run_seconds"`
	Scale   int     `json:"scale"`
	Host    host    `json:"host"`
	// Bounds repeats each end-to-end metric's regression bound, so
	// -compare judges two files by the bounds they were measured under.
	Bounds    map[string]metricDef `json:"bounds"`
	Workloads []workloadResult     `json:"workloads"`
}

const modelStatement = "unvalidated: the repository holds no reference results, so no error figure is given; modelled caches start empty in every workload except sweep-shared-warmup, which measures after the warmup barrier"

// runSuite runs every workload, pass 1 then pass 2, and prints every metric
// by name with its unit.
func runSuite(cfg config, outPath, spansPath string, stdout, stderr io.Writer) int {
	all := results{Schema: 1, Model: modelStatement, Seed: cfg.Seed, Seconds: cfg.Seconds, Scale: cfg.Scale,
		Host: hostFacts(), Bounds: map[string]metricDef{}}
	for _, m := range endToEnd {
		all.Bounds[m.Name] = m
	}
	if spansPath != "" {
		if err := os.WriteFile(spansPath, nil, 0o644); err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 1
		}
	}
	failed := false
	for _, w := range workloads {
		res, err := runUntraced(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 1
		}
		traced, err := runTraced(w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 1
		}
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Failures = append(res.Failures, traced.Failures...)
		if traced.SimDigest != res.SimDigest {
			res.Failed++
			res.Failures = append(res.Failures, "traced pass sim_digest differs from the untraced pass")
		}
		res.PerLayer = traced.PerLayer
		res.AccountedShare = traced.AccountedShare
		if spansPath != "" {
			if err := writeSpans(spansPath, traced.spans); err != nil {
				fmt.Fprintln(stderr, "bopbench:", err)
				return 1
			}
		}
		printWorkload(stdout, res)
		failed = failed || res.Failed > 0
		all.Workloads = append(all.Workloads, res)
	}
	if outPath != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(outPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

func printWorkload(w io.Writer, r workloadResult) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed (failed_share %.4f), sim_digest %.16s\n",
		r.Name, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.SimDigest)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, m := range endToEnd {
		v := r.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-34s %14.6g %-6s q1 %.6g q3 %.6g n=%d\n", m.Name, v.Median, m.Unit, v.Q1, v.Q3, v.N)
	}
	names := make([]string, 0, len(r.PerLayer))
	for n := range r.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-34s %14.6g %s\n", n, r.PerLayer[n].Value, r.PerLayer[n].Unit)
	}
	if r.AccountedShare > 0 {
		fmt.Fprintf(w, "   layers account for %.1f%% of the traced loop\n", 100*r.AccountedShare)
	}
}
