// Command bopbench is the repository's benchmark: six workloads, four
// end-to-end metrics and a traced per-layer breakdown, declared in the root
// BENCHMARK.json. See benchmarks/README.md.
//
//	go run ./benchmarks/bopbench [-seed 1] [-out results.json] [-spans spans.jsonl]
//	go run ./benchmarks/bopbench -workload solo-compute -seed 3 -seconds 10 -trace 0
//	go run ./benchmarks/bopbench -compare A.json B.json
//	go run ./benchmarks/bopbench -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// runSeconds is how long one untraced run measures; BENCHMARK.json's
// run_seconds repeats it.
const runSeconds = 10

func main() {
	if path := os.Getenv(childEnv); path != "" {
		os.Exit(childMain(path))
	}
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bopbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadName = fs.String("workload", "", "run one workload and print one JSON result line (default: all six, both passes)")
		seed         = fs.Uint64("seed", 1, "Options.Seed / Runner.Seed of every simulation")
		seconds      = fs.Float64("seconds", runSeconds, "measured seconds of one untraced run")
		traced       = fs.String("trace", "0", "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
		out          = fs.String("out", "", "write the full results as JSON to this file")
		spansPath    = fs.String("spans", "", "write the traced pass's spans as JSON lines to this file")
		compareMode  = fs.Bool("compare", false, "compare two -out files: bopbench -compare A.json B.json")
		smoke        = fs.Bool("smoke", false, "every workload at 1/100 size, both passes, in a few seconds")
		work         = fs.String("work", ".bench_build", "directory the run's scratch directory is created in (and removed from)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareMode {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bopbench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bopbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *traced != "0" && *traced != "1" {
		fmt.Fprintln(stderr, "bopbench: -trace takes 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "bopbench: -seconds must be positive")
		return 2
	}
	cfg := config{Seed: *seed, Seconds: *seconds, Scale: 1, Children: childrenPerRun, MinReps: 2}
	if *smoke {
		cfg = config{Seed: *seed, Seconds: *seconds / 100, Scale: 100, Children: 1, MinReps: 1}
	}
	// Scratch lives inside the checkout by default (the benchmark writes
	// nowhere else) and is removed before exit.
	cfg.WorkRoot = filepath.Join(*work, "bopbench-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(cfg.WorkRoot)

	if *workloadName != "" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 2
		}
		return runOne(w, cfg, *traced == "1", *spansPath, stdout, stderr)
	}
	return runSuite(cfg, *out, *spansPath, stdout, stderr)
}

// resultLine is the last line of standard output of a single-workload run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOne runs one pass of one workload and prints its result line: every
// end-to-end metric untraced, every per-layer metric traced.
func runOne(w workload, cfg config, traced bool, spansPath string, stdout, stderr io.Writer) int {
	line := resultLine{Metrics: map[string]value{}}
	var res workloadResult
	var err error
	if traced {
		res, err = runTraced(w, cfg)
		for _, m := range perLayer {
			// A metric this workload does not exercise reads 0.
			line.Metrics[m.Name] = value{Value: res.PerLayer[m.Name].Value, Unit: m.Unit}
		}
	} else {
		res, err = runUntraced(w, cfg)
		for _, m := range endToEnd {
			line.Metrics[m.Name] = value{Value: res.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bopbench:", err)
		return 1
	}
	for _, f := range res.Failures {
		fmt.Fprintf(stderr, "bopbench: %s: FAILED: %s\n", w.Name, f)
	}
	fmt.Fprintf(stderr, "bopbench: %s seed %d: sim_digest %s\n", w.Name, cfg.Seed, res.SimDigest)
	if spansPath != "" && traced {
		if err := writeSpans(spansPath, res.spans); err != nil {
			fmt.Fprintln(stderr, "bopbench:", err)
			return 1
		}
	}
	line.Correct = res.Failed == 0
	line.Attempted = res.Attempted
	line.Failed = res.Failed
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bopbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}
