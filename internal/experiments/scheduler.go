package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"bopsim/internal/engine"
	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// This file is the Runner's scheduler: figures enumerate the simulations
// they need, RunJobs deduplicates that set against everything already
// cached and executes the remainder on the configured ExecBackend (the
// in-process pool by default, a distrib worker fleet when one is wired
// in), and the figure then assembles its table serially from the warm
// cache — so the rendered output is byte-identical regardless of backend,
// worker count or interleaving.

// runFunc executes (or replays from cache) one simulation.
type runFunc func(engine.Options) engine.Result

// job is one pending simulation with the two keys the scheduler needs of it.
type job struct {
	o         engine.Options
	cacheKey  string // OptionsHash(o)
	warmupKey string // WarmupKey(o), set by leadersFirst; "" for no leg to share
}

// defaultMaxErrors bounds how many job failures RunJobs collects before it
// stops dispatching: enough that a sweep with a handful of bad specs
// reports them all in one pass, small enough that a systematically broken
// sweep doesn't burn hours failing every job.
const defaultMaxErrors = 16

// enumerationResult is what the recording stub hands back during the
// planning pass: harmless non-zero placeholders, since speedup and
// geometric-mean math reject non-positive values. The table built from
// them is discarded.
var enumerationResult = engine.Result{IPC: 1, DRAMAccessesPerKI: 1}

// materialize invokes build twice: first with a recording stub to
// enumerate every simulation the figure needs, then — after RunJobs has
// executed the deduplicated job set on the backend — against the warm
// cache to assemble the real table.
func (r *Runner) materialize(build func(run runFunc) *stats.Table) *stats.Table {
	var jobs []engine.Options
	build(func(o engine.Options) engine.Result {
		jobs = append(jobs, o)
		return enumerationResult
	})
	if err := r.RunJobs(jobs); err != nil {
		panic(buildError{fmt.Errorf("experiments: %w", err)})
	}
	return build(r.run)
}

// buildError is the panic value a figure builder aborts with when one of
// its simulations fails: the builders return bare tables, so the failure
// unwinds through them and TargetTables turns it back into an error.
type buildError struct{ error }

// RunJobs executes every not-yet-cached simulation in opts on the
// execution backend and populates the Runner's caches. Duplicate entries
// (and entries already satisfied by the in-memory cache) are skipped, so
// callers can enumerate naively.
//
// Job failures are collected, not short-circuited: the returned error
// joins every failure (errors.Join), each prefixed with the run it
// belongs to, so a partially-failed sweep reports all its bad jobs in one
// pass. Dispatch stops early only once MaxErrors failures (default 16)
// have accumulated; in-flight jobs always complete.
func (r *Runner) RunJobs(opts []engine.Options) error {
	jobs := r.pendingJobs(opts)
	if len(jobs) == 0 {
		return nil
	}
	// Warmup sharing: each warmup group's leg is created lazily by the
	// first of its jobs to dispatch, and every variant forks from the
	// snapshot instead of replaying the warmup. Jobs whose group has no
	// usable checkpoint simply run straight — identical bytes, just
	// slower.
	ckpts := r.checkpointResolver()
	if ckpts != nil {
		jobs = ckpts.leadersFirst(jobs)
	}
	backend := r.backend()
	slots := backend.Slots()
	if slots < 1 {
		slots = 1
	}
	if slots > len(jobs) {
		slots = len(jobs)
	}
	maxErrors := r.MaxErrors
	if maxErrors <= 0 {
		maxErrors = defaultMaxErrors
	}

	total := len(jobs)
	r.beginJobSet(backend, slots, total)
	defer r.endJobSet()

	var done atomic.Int64
	var errMu sync.Mutex
	var errs []error
	tooManyErrors := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return len(errs) >= maxErrors
	}
	work := make(chan job)
	var wg sync.WaitGroup
	for i := 0; i < slots; i++ {
		slot := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				o := j.o
				r.setAssignment(slot, describeOptions(o))
				_, err := r.runWith(o, func(engine.Options) (engine.Result, error) {
					return r.execOnBackend(backend, slot, j, ckpts)
				})
				r.setAssignment(slot, "")
				if err != nil {
					errMu.Lock()
					errs = append(errs, fmt.Errorf("%s: %w", describeOptions(o), err))
					errMu.Unlock()
				}
				d := int(done.Add(1))
				r.noteDone(d)
				if r.Progress != nil {
					r.Progress(d, total)
				}
			}
		}()
	}
	for _, j := range jobs {
		// Stop dispatching once the failure budget is spent: the figure is
		// going to abort anyway, so don't burn hours finishing the sweep.
		if tooManyErrors() {
			break
		}
		work <- j
	}
	close(work)
	wg.Wait()
	return errors.Join(errs...)
}

// execOnBackend runs one job on the backend, forking from its warmup
// group's checkpoint when one can be resolved and the backend supports it.
// Under the in-process pool the job whose demand ran the group's leg needs
// no fork: it runs on the machine it is already holding, which stands where
// Restore of the snapshot it just wrote would put a new one.
func (r *Runner) execOnBackend(backend ExecBackend, slot int, j job, ckpts *ckptResolver) (engine.Result, error) {
	if ckpts != nil {
		if cb, ok := backend.(CheckpointBackend); ok {
			ref, leg, ok := ckpts.resolve(j)
			if leg != nil && r.Backend == nil {
				return leg.Run(context.Background())
			}
			if ok {
				return cb.RunFrom(slot, j.o, ref.path, ref.sha)
			}
		}
	}
	return backend.Run(slot, j.o)
}

// pendingJobs deduplicates opts by cache key and drops entries either
// cache already satisfies, preserving first-appearance order. Probing the
// disk cache here (not just per-job in runWith) matters for warmup
// sharing: a fully disk-cached rerun must schedule nothing, so
// prepareCheckpoints never pays a warmup leg for a group with no real work
// left. Disk hits are promoted into the in-memory cache, exactly as
// runWith would have done.
func (r *Runner) pendingJobs(opts []engine.Options) []job {
	seen := make(map[string]bool, len(opts))
	var maybe []job
	r.mu.Lock()
	for _, o := range opts {
		k := OptionsHash(o)
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := r.cache[k]; ok {
			continue
		}
		maybe = append(maybe, job{o: o, cacheKey: k})
	}
	r.mu.Unlock()
	if r.CacheDir == "" || len(maybe) == 0 {
		return maybe
	}
	// Probe the disk cache concurrently — a mostly-cached rerun of a large
	// sweep would otherwise spend its startup in one goroutine's serial
	// read+decode loop — then apply the hits in input order so log lines
	// and the resulting job list stay deterministic.
	hits := make([]*engine.Result, len(maybe))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, p := range maybe {
		i, key := i, p.cacheKey
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if res, ok := (diskCache{r.CacheDir}).load(key); ok {
				hits[i] = &res
			}
		}()
	}
	wg.Wait()
	var jobs []job
	for i, p := range maybe {
		if res := hits[i]; res != nil {
			r.mu.Lock()
			r.cache[p.cacheKey] = *res
			r.mu.Unlock()
			r.logResult("load", p.o, res.IPC)
			continue
		}
		jobs = append(jobs, p)
	}
	return jobs
}

// runWith executes one simulation via exec unless a cache satisfies it:
// in-memory first, then the on-disk cache (when CacheDir is set). Fresh
// results are written through to both, so a result computed by a remote
// worker lands in the shared disk cache in the same entry format a local
// run produces. Safe for concurrent use.
func (r *Runner) runWith(o engine.Options, exec func(engine.Options) (engine.Result, error)) (engine.Result, error) {
	key := OptionsHash(o)
	r.mu.Lock()
	res, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return res, nil
	}
	if r.CacheDir != "" {
		if res, ok := (diskCache{r.CacheDir}).load(key); ok {
			r.mu.Lock()
			r.cache[key] = res
			r.mu.Unlock()
			r.logResult("load", o, res.IPC)
			return res, nil
		}
	}
	res, err := exec(o)
	if err != nil {
		return engine.Result{}, err
	}
	r.executed.Add(1)
	r.logResult("ran", o, res.IPC)
	r.mu.Lock()
	r.cache[key] = res
	r.mu.Unlock()
	if r.CacheDir != "" {
		if err := (diskCache{r.CacheDir}).store(key, o, res); err != nil {
			r.logf("  cache write failed: %v\n", err)
		}
	}
	return res, nil
}

// run executes one simulation in-process unless a cache satisfies it. The
// figures' assembly pass uses it after RunJobs has warmed the cache, so it
// normally never executes anything; a failure aborts the builder like a
// failed job set does.
func (r *Runner) run(o engine.Options) engine.Result {
	res, err := r.runWith(o, func(o engine.Options) (engine.Result, error) {
		return engine.Run(context.Background(), o)
	})
	if err != nil {
		panic(buildError{fmt.Errorf("experiments: %w", err)})
	}
	return res
}

// Executed returns how many simulations this Runner actually executed —
// locally or on a remote backend; cache hits, in memory or on disk, are
// not counted.
func (r *Runner) Executed() uint64 { return uint64(r.executed.Load()) }

// logf writes one progress line to r.Log, serializing concurrent workers.
func (r *Runner) logf(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format, args...)
}

// logResult writes the progress line of one loaded or executed simulation.
// describeOptions normalizes and formats, so it runs only when there is a
// log to write to: a cached render on a Runner without one formats nothing.
func (r *Runner) logResult(verb string, o engine.Options, ipc float64) {
	if r.Log == nil {
		return
	}
	r.logf("  %-4s %-55s IPC=%.3f\n", verb, describeOptions(o), ipc)
}

// describeOptions renders the human-readable run description used in log
// lines (the cache key itself is an opaque hash). Specs are
// self-describing, so their canonical strings carry every parameter. It is
// a full Normalized plus a Sprintf: call it where the string is used, not
// as an argument evaluated ahead of a nil-log check.
func describeOptions(o engine.Options) string {
	o = o.Normalized()
	// trace.SpecsLabel over the just-normalized specs — not WorkloadsLabel,
	// which would normalize a second time.
	d := fmt.Sprintf("%s|%d-core/%s|%s|%s|l1=%s|n=%d|seed=%d",
		trace.SpecsLabel(o.Workloads), o.Cores, o.Page, o.L2PF, o.L3Policy, o.L1PF, o.Instructions, o.Seed)
	if o.Warmup > 0 {
		d += fmt.Sprintf("|w=%d", o.Warmup)
	}
	return d
}
