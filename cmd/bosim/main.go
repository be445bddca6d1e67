// Command bosim runs one simulation: a workload on a baseline
// configuration with a chosen L2 prefetcher, printing IPC and the relevant
// event counts. It drives the steppable engine directly, so Ctrl-C cancels
// a long run cleanly (reporting the partial measurements) and -progress
// shows the run advancing. With -workers the run executes on a remote
// boworkerd daemon instead of in-process.
//
// Prefetchers are selected by registry spec: any name printed by -list-pf,
// optionally parameterized as name:key=value,key=value.
//
// -verify is the result-cache trust anchor: it re-executes a sample of the
// entries in a -cache directory and diffs each fresh result against the
// stored one, catching caches gone stale after simulator changes (and
// spot-checking results that remote workers computed).
//
// Usage:
//
//	bosim -workload 462.libquantum -l2pf bo -page 4MB -cores 1 -n 1000000
//	bosim -workload gups:footprint=64mb -l2pf bo
//	bosim -workloads "gups:footprint=64mb;stream:stride=128" -l2pf bo
//	bosim -workload 433.milc -l2pf offset:d=4 -l1pf none
//	bosim -workload 433.milc -l2pf bo -warmup 200000 -checkpoint milc.ckpt
//	bosim -workload 429.mcf -l2pf bo:badscore=5 -progress -json
//	bosim -workload 470.lbm -workers 10.0.0.7:9123
//	bosim -verify -cache .simcache -verify-sample 16
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"

	"bopsim/internal/distrib"
	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/profiling"
	"bopsim/internal/trace"
)

func main() {
	var (
		workload  = flag.String("workload", "462.libquantum", "core-0 workload spec: any registered generator, e.g. 429.mcf, gups:footprint=64mb (see -list-workloads)")
		workloads = flag.String("workloads", "", "per-core workload specs, ';'-separated (\"gups:footprint=64mb;stream:stride=128\"); -cores defaults to the list length")
		cores     = flag.Int("cores", 1, "active cores (1..4; the paper's baselines use 1, 2 and 4)")
		pageStr   = flag.String("page", "4KB", "page size: 4KB or 4MB")
		l2pf      = flag.String("l2pf", "nextline", "L2 prefetcher spec, e.g. bo, offset:d=4, bo:badscore=5 (see -list-pf)")
		l1pf      = flag.String("l1pf", "stride", "DL1 prefetcher spec: stride, stride:dist=8, none")
		n         = flag.Uint64("n", 500_000, "instructions to retire on core 0")
		warmup    = flag.Uint64("warmup", 0, "warmup instructions before the measured region (stats reset at the barrier)")
		ckptFile  = flag.String("checkpoint", "", "warmup snapshot file: restore from it when present, else run the warmup once and save it there")
		l3        = flag.String("l3", "5P", "L3 replacement policy: 5P|LRU|DRRIP")
		seed      = flag.Uint64("seed", 1, "simulation seed (also seeds -verify sampling)")
		list      = flag.Bool("list", false, "list the benchmark stand-in names and exit")
		listWL    = flag.Bool("list-workloads", false, "list every registered workload generator with its parameter schema, then exit")
		listPF    = flag.Bool("list-pf", false, "list every registered prefetcher with its parameter schema, then exit")
		jsonOut   = flag.Bool("json", false, "print the result as JSON instead of text")
		progress  = flag.Bool("progress", false, "report live progress on stderr while running")

		workersCS = flag.String("workers", "", "comma-separated boworkerd addresses: execute the run remotely instead of in-process")

		verify       = flag.Bool("verify", false, "verify a result cache: re-execute sampled entries from -cache and diff against the stored results")
		cacheDir     = flag.String("cache", "", "result-cache directory for -verify")
		verifySample = flag.Int("verify-sample", 8, "how many cache entries -verify re-executes (0: all)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	if *list {
		for _, b := range trace.Benchmarks() {
			fmt.Println(b)
		}
		return
	}
	if *listWL {
		listRegistry("workload generators (-workload / -workloads):", trace.Generators)
		return
	}
	if *listPF {
		listRegistry("L2 prefetchers (-l2pf):", prefetch.L2)
		listRegistry("DL1 prefetchers (-l1pf):", prefetch.L1)
		return
	}
	if *verify {
		runVerify(*cacheDir, *verifySample, *seed)
		return
	}

	page := mem.Page4K
	switch *pageStr {
	case "4KB", "4kb":
	case "4MB", "4mb":
		page = mem.Page4M
	default:
		fmt.Fprintf(os.Stderr, "bosim: unknown page size %q\n", *pageStr)
		os.Exit(2)
	}

	o := engine.DefaultOptions("")
	o.Workloads, o.Cores = resolveWorkloads(*workload, *workloads, *cores)
	o.Page = page
	o.L2PF = parseSpec(*l2pf)
	o.L1PF = parseSpec(*l1pf)
	o.L3Policy = *l3
	o.Instructions = *n
	o.Seed = *seed
	o.Warmup = *warmup
	if *ckptFile != "" && *warmup == 0 {
		fmt.Fprintln(os.Stderr, "bosim: -checkpoint needs -warmup N (the snapshot is the warmup barrier)")
		os.Exit(2)
	}

	if *workersCS != "" {
		// Remote execution: the whole run happens on one worker, so there
		// is no stepping, progress or partial-result cancellation here.
		pool, err := distrib.Dial(strings.Split(*workersCS, ","), distrib.RetryPolicy{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
			os.Exit(1)
		}
		var r engine.Result
		if sha := trace.ContentSHA(*ckptFile); *ckptFile != "" && sha != "" {
			// Ship the snapshot's identity; a worker holding a copy forks
			// from it, any other runs the warmup itself.
			r, err = pool.RunFrom(0, o, *ckptFile, sha)
		} else {
			if *ckptFile != "" {
				// Remote execution cannot create the snapshot: the warmup
				// runs on the worker and its barrier state never comes back.
				fmt.Fprintf(os.Stderr, "bosim: -checkpoint is restore-only with -workers; %s does not exist, the worker replays the warmup and no snapshot is saved (create one with a local run first)\n", *ckptFile)
			}
			r, err = pool.Run(0, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
			os.Exit(1)
		}
		output(o.Normalized(), r, false, *jsonOut)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := buildSimulation(ctx, o, *ckptFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
		os.Exit(1)
	}
	r, err := run(ctx, s, *progress)
	interrupted := err == context.Canceled
	switch {
	case interrupted:
		// Interrupted: report the partial run, marked as such, and exit
		// nonzero below so callers never mistake it for a complete one.
		fmt.Fprintf(os.Stderr, "bosim: interrupted after %d cycles (%d/%d instructions); partial results follow\n",
			s.Cycles(), s.Retired(), *n)
		r = s.Snapshot()
	case err != nil:
		fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
		os.Exit(1)
	}
	output(s.Options(), r, interrupted, *jsonOut)
	stopProfiles() // exitInterrupted bypasses deferred calls
	exitInterrupted(interrupted)
}

// buildSimulation constructs the run. With -checkpoint it restores the
// warmup barrier from the named snapshot when the file exists; when it does
// not exist it runs the warmup once, saves the snapshot there, and returns
// the machine standing at the barrier — either way the subsequent measured
// region is byte-identical to a straight run. A snapshot that exists but
// cannot be read (permissions, a directory) is an error, never a reason to
// re-run the warmup and overwrite the path.
func buildSimulation(ctx context.Context, o engine.Options, ckptFile string) (*engine.Simulation, error) {
	if ckptFile == "" {
		return engine.New(o)
	}
	data, err := os.ReadFile(ckptFile)
	if err == nil {
		s, err := engine.Restore(data, o)
		if err != nil {
			return nil, fmt.Errorf("restoring %s: %w", ckptFile, err)
		}
		fmt.Fprintf(os.Stderr, "bosim: restored warmup barrier from %s (%d instructions skipped)\n", ckptFile, o.Warmup)
		return s, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("-checkpoint: %w", err)
	}
	s, err := engine.New(o)
	if err != nil {
		return nil, err
	}
	if err := s.RunWarmup(ctx); err != nil {
		return nil, err
	}
	snap, err := s.Checkpoint()
	if err != nil {
		return nil, err
	}
	if err := engine.WriteFileAtomic(ckptFile, snap); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bosim: wrote warmup snapshot %s (%d KB)\n", ckptFile, len(snap)>>10)
	return s, nil
}

// output renders one finished (or interrupted) run, local or remote.
func output(o engine.Options, r engine.Result, interrupted, jsonOut bool) {
	if jsonOut {
		b, err := json.MarshalIndent(struct {
			Options     engine.Options `json:"options"`
			Interrupted bool           `json:"interrupted,omitempty"`
			Result      engine.Result  `json:"result"`
		}{o, interrupted, r}, "", " ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Printf("workload        %s\n", r.Workload)
	fmt.Printf("config          %s, L2 prefetcher %s, L3 %s\n", o.ConfigLabel(), o.L2PF, o.L3Policy)
	fmt.Printf("instructions    %d\n", r.Instructions)
	fmt.Printf("cycles          %d\n", r.Cycles)
	fmt.Printf("IPC             %.4f\n", r.IPC)
	fmt.Printf("DRAM acc/KI     %.2f (reads %d, writes %d)\n", r.DRAMAccessesPerKI, r.DRAM.Reads, r.DRAM.Writes)
	fmt.Printf("DRAM row hits   %d (closed %d, conflicts %d)\n", r.DRAM.RowHits, r.DRAM.RowClosed, r.DRAM.RowConflicts)
	st := r.Hier
	fmt.Printf("DL1 hits/misses %d/%d\n", st.DL1Hits, st.DL1Misses)
	fmt.Printf("L2 pf hits      %d (late promotions %d)\n", st.L2PrefetchedHits, st.PrefLatePromotions)
	fmt.Printf("L2 pf issued    %d (dup-dropped %d, tag-dropped %d, cancelled %d)\n",
		st.PrefIssued, st.PrefDroppedDup, st.PrefDroppedTagCheck, st.PrefCancelled)
	fmt.Printf("DL1 stride pf   %d issued, %d TLB-dropped\n", st.StridePrefIssued, st.StridePrefDroppedTLB)
	fmt.Printf("TLB walks       %d\n", st.TLBWalks)
	if r.BO != nil {
		fmt.Printf("BO              final offset %d, phases %d (off %d), RR insertions %d\n",
			r.FinalBOOffset, r.BO.Phases, r.BO.PhasesOff, r.BO.RRInsertions)
	}
}

// runVerify is the -verify mode: re-execute sampled cache entries and exit
// nonzero when any stored result diverges from a fresh run.
func runVerify(dir string, sample int, seed uint64) {
	if dir == "" {
		fmt.Fprintln(os.Stderr, "bosim: -verify needs -cache DIR")
		os.Exit(2)
	}
	rep, err := experiments.VerifyCache(dir, sample, seed, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosim: verify: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("verified %d/%d cache entries: %d mismatched, %d orphaned (unreachable key), %d skipped (corrupt or old schema)\n",
		rep.Checked, rep.Entries, rep.Mismatched, rep.Orphaned, rep.Skipped)
	if rep.Mismatched > 0 {
		fmt.Fprintln(os.Stderr, "bosim: cache is STALE — delete the mismatched entries (or the directory) and re-run")
		os.Exit(1)
	}
}

// exitInterrupted exits with the conventional SIGINT status when the run
// was cancelled, after the partial results have been printed.
func exitInterrupted(interrupted bool) {
	if interrupted {
		os.Exit(130)
	}
}

// resolveWorkloads turns the workload flags into the per-core spec list:
// -workloads (';'-separated, one spec per core) or -workload (core 0 only;
// satellite cores get the registry's microthrash default), never both. With
// -workloads and no explicit -cores, the core count follows the list length.
func resolveWorkloads(workload, workloads string, coresFlag int) ([]trace.Spec, int) {
	if workloads == "" {
		sp, err := trace.ParseSpec(workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
			os.Exit(2)
		}
		return []trace.Spec{sp}, coresFlag
	}
	coresSet, workloadSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "cores":
			coresSet = true
		case "workload":
			workloadSet = true
		}
	})
	if workloadSet {
		// Silently dropping an explicit -workload would measure the wrong
		// run without a diagnostic.
		fmt.Fprintln(os.Stderr, "bosim: -workloads and -workload are mutually exclusive (put the core-0 spec first in -workloads)")
		os.Exit(2)
	}
	specs, err := trace.ParseSpecList(workloads)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
		os.Exit(2)
	}
	cores := coresFlag
	if !coresSet && len(specs) > cores {
		cores = len(specs)
	}
	if len(specs) > cores {
		fmt.Fprintf(os.Stderr, "bosim: %d workload specs but -cores %d\n", len(specs), cores)
		os.Exit(2)
	}
	return specs, cores
}

// listRegistry renders every registration of one spec registry (all three
// are a spec.Registry) with its help line, parameter schema and defaults.
func listRegistry(title string, r interface {
	Names() []string
	Help(name string) string
	Defaults(name string) (map[string]string, bool)
}) {
	fmt.Println(title)
	for _, name := range r.Names() {
		fmt.Printf("  %-15s %s\n", name, r.Help(name))
		defs, _ := r.Defaults(name)
		keys := make([]string, 0, len(defs))
		for k := range defs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var parts []string
		for _, k := range keys {
			if defs[k] == "" {
				parts = append(parts, k+"=?")
				continue
			}
			parts = append(parts, k+"="+defs[k])
		}
		if len(parts) > 0 {
			fmt.Printf("  %-15s   params: %s\n", "", strings.Join(parts, " "))
		}
	}
}

// parseSpec parses a spec flag, exiting with a usage error on bad syntax
// (unknown names and parameters are reported by engine.New, which can list
// the registered alternatives).
func parseSpec(s string) prefetch.Spec {
	sp, err := prefetch.ParseSpec(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bosim: %v\n", err)
		os.Exit(2)
	}
	return sp
}

// run drives the simulation to completion. Without -progress it defers to
// the engine's own loop; with it, it steps in visible chunks and rewrites a
// status line between them.
func run(ctx context.Context, s *engine.Simulation, progress bool) (engine.Result, error) {
	if !progress {
		return s.Run(ctx)
	}
	const chunk = 100_000 // cycles between status updates
	target := s.Options().Instructions
	for {
		if err := ctx.Err(); err != nil {
			fmt.Fprintln(os.Stderr)
			return engine.Result{}, err
		}
		done, err := s.Step(chunk)
		if err != nil {
			fmt.Fprintln(os.Stderr)
			return engine.Result{}, err
		}
		fmt.Fprintf(os.Stderr, "\rcycle %-12d retired %d/%d (IPC %.3f)",
			s.Cycles(), s.Retired(), target, s.Snapshot().IPC)
		if done {
			fmt.Fprintln(os.Stderr)
			return s.Snapshot(), nil
		}
	}
}
