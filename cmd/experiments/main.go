// Command experiments regenerates the paper's tables and figures as text
// tables. Each -figN flag runs the simulations that figure needs; -all runs
// everything. The runs are scheduled on a worker pool (-j) and deduplicated
// within one invocation; with -cache DIR completed simulations also persist
// across invocations, so re-running a figure is nearly free. -json DIR
// additionally writes each figure as machine-readable JSON.
//
// Usage:
//
//	experiments -all -quick                    # representative configs, fast
//	experiments -all -j 8 -cache .simcache     # parallel + persistent cache
//	experiments -fig6 -n 500000 -json out/     # full six configs for Figure 6
//	experiments -fig12 -workloads "433.milc;470.lbm"   # rows follow -workloads
//	experiments -best-offset -workloads "429.mcf;470.lbm"   # BO against every fixed offset
//	experiments -zoo -quick                    # every registered prefetcher
//	experiments -all -cache .simcache -cache-max-mb 256
//	experiments -all -workers 10.0.0.7:9123,10.0.0.8:9123 -cache .simcache
//	experiments -all -status :8090             # live progress JSON endpoint
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"bopsim/internal/distrib"
	"bopsim/internal/experiments"
	"bopsim/internal/plot"
	"bopsim/internal/profiling"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		quick    = flag.Bool("quick", false, "use the representative config subset instead of all six")
		n        = flag.Uint64("n", 300_000, "instructions per simulation (core 0)")
		wlCS     = flag.String("workloads", "", "';'-separated core-0 workload specs, one table ROW each (default: all 29 benchmarks; satellite cores run microthrash; fig8's columns are fixed and ignore it). Unlike bosim -workloads, entries here are rows, not cores — per-core heterogeneous runs are bosim's job")
		verbose  = flag.Bool("v", false, "log every simulation run")
		jobs     = flag.Int("j", runtime.GOMAXPROCS(0), "simulations to run concurrently")
		cacheDir = flag.String("cache", "", "persistent result-cache directory (empty: in-memory only)")
		jsonDir  = flag.String("json", "", "also write each figure as JSON into this directory")

		warmup     = flag.Uint64("warmup", 0, "warmup instructions per simulation before the measured region (stats reset at the barrier)")
		checkpoint = flag.Bool("checkpoint", false, "share warmup across sweep variants: one checkpointed warmup leg per trace+config group (needs -warmup)")
		ckptDir    = flag.String("checkpoint-dir", "", "warmup snapshot directory (default: <-cache>/checkpoints, or a temp directory)")
		cacheMaxMB = flag.Int64("cache-max-mb", 0, "evict oldest cache entries and warmup snapshots past this size budget after the run (0: unbounded)")
		workersCS  = flag.String("workers", "", "comma-separated boworkerd addresses (host:port,...) to execute simulations on instead of this process")
		statusAddr = flag.String("status", "", "serve scheduler progress as JSON on this address (e.g. :8090) for long sweeps")

		doPlot = flag.Bool("plot", false, "render each figure's first column as an ASCII chart")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the sweep to this file")
	)
	// One -<name> flag per renderable target, in canonical output order.
	targets := experiments.Targets()
	want := make([]*bool, len(targets))
	for i, t := range targets {
		want[i] = flag.Bool(t.Name, false, t.Usage)
	}
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	defer stopProfiles()

	var rows []trace.Spec
	if *wlCS != "" {
		if rows, err = trace.ParseSpecList(*wlCS); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}

	selected := func(i int) bool { return *want[i] || (*all && targets[i].InAll) }

	// Refuse a row no generator can build before anything is scheduled:
	// otherwise every job of the sweep runs to the same failure first.
	for _, sp := range rows {
		if _, err := trace.Normalize(sp); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
	}

	configs := experiments.AllConfigs()
	if *quick {
		configs = experiments.QuickConfigs()
	}
	r := experiments.NewRunner(*n, configs)
	r.Workers = *jobs
	r.CacheDir = *cacheDir
	r.Warmup = *warmup
	r.Checkpoint = *checkpoint
	r.CheckpointDir = *ckptDir
	if *checkpoint && *warmup == 0 {
		fmt.Fprintln(os.Stderr, "experiments: -checkpoint needs -warmup N (there is no warmup to share otherwise)")
		os.Exit(2)
	}
	if *workersCS != "" {
		pool, err := distrib.Dial(strings.Split(*workersCS, ","), distrib.RetryPolicy{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		r.Backend = pool
		total, _ := pool.Workers()
		fmt.Fprintf(os.Stderr, "distributed: %d workers, %d execution slots\n", total, pool.Slots())
	}
	if *statusAddr != "" {
		// Best-effort observability: a sweep must not die because the
		// status port is taken.
		go func() {
			if err := http.ListenAndServe(*statusAddr, experiments.StatusHandler(r)); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: status endpoint: %v\n", err)
			}
		}()
	}
	if rows != nil {
		r.Benchmarks = rows
	} else if *quick {
		// Quick mode also trims the workload list to the memory-active
		// benchmarks plus a few compute-bound representatives.
		r.Benchmarks = experiments.QuickBenchmarks()
	}
	if *verbose {
		r.Log = os.Stderr
	} else {
		// Live progress: one rewritten line per scheduled job set. The
		// callback runs on worker goroutines: a mutex keeps the counter
		// monotonic on screen (worker completions can report out of
		// order), and the final wipe is padded to the longest line
		// printed so no residue is left for the summary to land on.
		var mu sync.Mutex
		shown := 0
		r.Progress = func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if done < shown {
				return
			}
			shown = done
			line := fmt.Sprintf("  %d/%d sims", done, total)
			fmt.Fprint(os.Stderr, "\r"+line)
			if done == total {
				shown = 0 // next job set starts over
				fmt.Fprint(os.Stderr, "\r"+strings.Repeat(" ", len(line))+"\r")
			}
		}
	}

	any := false
	for i := range targets {
		any = any || selected(i)
	}
	if !any {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
	}

	if *checkpoint && *ckptDir == "" && *cacheDir == "" {
		// Snapshots have nowhere durable to live: use a private directory
		// for this invocation and remove it on exit, so repeated sweeps
		// don't accumulate multi-MB snapshots in the system temp dir. It is
		// fresh and 0700 (MkdirTemp) rather than a fixed shared path:
		// Restore trusts any snapshot whose signature matches, so a
		// predictable shared directory would let another local user
		// pre-plant forged machine state. This
		// sits after all flag validation so usage errors (os.Exit above)
		// never create the directory; error exits below go through fatalf,
		// which removes it (os.Exit skips defers).
		dir, err := os.MkdirTemp("", "bopsim-checkpoints-")
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer os.RemoveAll(dir)
		tmpCkptDir = dir
		r.CheckpointDir = dir
	}

	start := time.Now()
	show := func(name string, tables ...*stats.Table) {
		for _, tb := range tables {
			tb.Render(os.Stdout)
			if *doPlot {
				c := &plot.Chart{Title: tb.Title + " [" + tb.Columns[0] + "]", Reference: 1.0}
				for _, row := range tb.Rows() {
					if v, ok := tb.Value(row, 0); ok {
						c.Add(row, v)
					}
				}
				c.Render(os.Stdout)
				fmt.Println()
			}
		}
		if *jsonDir != "" && len(tables) > 0 {
			if err := writeJSON(filepath.Join(*jsonDir, name+".json"), tables); err != nil {
				fatalf("experiments: %v\n", err)
			}
		}
	}
	for i, t := range targets {
		if !selected(i) {
			continue
		}
		tables, err := experiments.TargetTables(r, t.Name, *quick)
		if err == nil && tables == nil { // a static text table
			err = experiments.RenderTarget(r, t.Name, *quick, os.Stdout)
		}
		if err != nil {
			fatalf("%v\n", err) // already prefixed "experiments: "
		}
		show(t.Name, tables...)
	}
	if *cacheDir != "" && *cacheMaxMB > 0 {
		removed, freed, err := experiments.EvictCache(*cacheDir, *cacheMaxMB<<20)
		if err != nil {
			fatalf("experiments: cache eviction: %v\n", err)
		}
		if removed > 0 {
			fmt.Fprintf(os.Stderr, "cache: evicted %d oldest files (%d KB) to stay under %d MB\n",
				removed, freed>>10, *cacheMaxMB)
		}
	}
	fmt.Fprintf(os.Stderr, "total time: %v (%d simulations executed, -j %d)\n",
		time.Since(start).Round(time.Millisecond), r.Executed(), *jobs)
}

// tmpCkptDir is the private fallback snapshot directory, when one was
// created; fatalf removes it on error exits, since os.Exit skips the defer
// that handles the normal path.
var tmpCkptDir string

// fatalf reports an error and exits 1, cleaning up the temporary snapshot
// directory first.
func fatalf(format string, args ...any) {
	if tmpCkptDir != "" {
		os.RemoveAll(tmpCkptDir)
	}
	fmt.Fprintf(os.Stderr, format, args...)
	os.Exit(1)
}

// writeJSON stores one figure's tables (most figures have one; Figure 3 has
// two) as a JSON array.
func writeJSON(path string, tables []*stats.Table) error {
	b, err := json.MarshalIndent(tables, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
