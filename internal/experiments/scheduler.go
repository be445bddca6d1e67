package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/spec"
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
	opts      []byte // the options' JSON, as runKey returns it with cacheKey
	warmupKey string // WarmupKey(o), set by leadersFirst; "" for no leg to share
}

// maxErrors bounds how many job failures RunJobs collects before it stops
// dispatching: enough that a sweep with a handful of bad specs reports them
// all in one pass, small enough that a systematically broken sweep doesn't
// burn hours failing every job.
const maxErrors = 16

// enumerationResult is what the recording stub hands back during the
// planning pass: harmless non-zero placeholders, since speedup and
// geometric-mean math reject non-positive values. The table built from
// them is discarded.
var enumerationResult = engine.Result{IPC: 1, DRAMAccessesPerKI: 1}

// materialize invokes build twice: first with a recording stub to
// enumerate every simulation the figure needs, then — after the
// deduplicated job set has run on the backend — against the warm cache to
// assemble the real table. The assembly pass replays the enumeration: its
// i-th run call must ask for options equal (sameOptions) to the i-th
// recorded ones, and is answered from the key pendingJobs computed for
// them, so each cell is keyed once. A pass that diverges, or stops short,
// is a builder bug and aborts the figure with a buildError naming the first
// such cell.
func (r *Runner) materialize(build func(run runFunc) *stats.Table) *stats.Table {
	var opts []engine.Options
	build(func(o engine.Options) engine.Result {
		opts = append(opts, o)
		return enumerationResult
	})
	keys, jobs := r.pendingJobs(opts)
	if err := r.execute(jobs); err != nil {
		panic(buildError{fmt.Errorf("experiments: %w", err)})
	}
	results := make([]engine.Result, len(keys))
	r.mu.Lock()
	for i, k := range keys {
		results[i] = r.cache[k]
	}
	r.mu.Unlock()
	next := 0
	tb := build(func(o engine.Options) engine.Result {
		if next == len(opts) || !sameOptions(o, opts[next]) {
			panic(buildError{fmt.Errorf("experiments: assembly pass diverged from its enumeration at cell %d: asked for %s", next, describeOptions(o))})
		}
		next++
		return results[next-1]
	})
	if next < len(opts) {
		panic(buildError{fmt.Errorf("experiments: assembly pass stopped at cell %d of %d, never asking for %s", next, len(opts), describeOptions(opts[next]))})
	}
	return tb
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
// pass. Dispatch stops early only once maxErrors failures have
// accumulated; in-flight jobs always complete.
func (r *Runner) RunJobs(opts []engine.Options) error {
	_, jobs := r.pendingJobs(opts)
	return r.execute(jobs)
}

// execute runs jobs, which pendingJobs returned, on the execution backend;
// see RunJobs.
func (r *Runner) execute(jobs []job) error {
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
				r.setAssignment(slot, &o)
				err := r.runWith(j, func() (engine.Result, error) {
					return r.execOnBackend(backend, slot, j, ckpts)
				})
				r.setAssignment(slot, nil)
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
// Restore of the snapshot it just wrote would put a new one. Either way the
// leg's machine ends here, closed.
func (r *Runner) execOnBackend(backend ExecBackend, slot int, j job, ckpts *ckptResolver) (engine.Result, error) {
	if ckpts != nil {
		if cb, ok := backend.(CheckpointBackend); ok {
			ref, leg, ok := ckpts.resolve(j)
			if leg != nil {
				defer leg.Close()
				if r.Backend == nil {
					return leg.Run(context.Background())
				}
			}
			if ok {
				return cb.RunFrom(slot, j.o, ref.path, ref.sha)
			}
		}
	}
	return backend.Run(slot, j.o)
}

// pendingJobs keys every entry of opts (keys[i] is OptionsHash(opts[i]),
// taken from the Runner's key memo, keyOf) and returns the jobs still to
// run: the entries deduplicated by key, in first-appearance order, less
// those either cache already satisfies. This is the one disk probe of a
// job: execute runs only what it returns, and runWith only stores. Probing
// before anything executes matters for warmup sharing too: a fully
// disk-cached rerun must schedule nothing, so prepareCheckpoints never
// pays a warmup leg for a group with no real work left.
//
// The disk probes run while keying goes on: the first key missing from
// memory starts a fixed pool of loaders, and each such key is handed to it
// as soon as it is known — the key and the options bytes a record must
// store travel through the channel, so no loader reads the job list this
// loop is still appending to. Hits are applied in input order once the
// pool drains, so log lines and the job list do not depend on which loader
// finished first.
func (r *Runner) pendingJobs(opts []engine.Options) (keys []string, jobs []job) {
	keys = make([]string, len(opts))
	seen := make(map[string]bool, len(opts))
	var (
		probes  chan diskProbe
		results []engine.Result // indexed like jobs
		hit     []bool
		wg      sync.WaitGroup
	)
	r.mu.Lock()
	for i, o := range opts {
		k, kopts := r.keyOf(o)
		keys[i] = k
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := r.cache[k]; ok {
			continue
		}
		if r.CacheDir != "" {
			if probes == nil {
				// Every job from here on is probed, so at most
				// len(opts)-i of them are left: a buffer that size
				// never blocks a send made under r.mu.
				n := len(opts) - i
				probes = make(chan diskProbe, n)
				results, hit = make([]engine.Result, n), make([]bool, n)
				c := newDiskCache(r.CacheDir)
				for range min(runtime.GOMAXPROCS(0), n) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var buf bytes.Buffer
						for p := range probes {
							results[p.job], hit[p.job] = c.loadInto(&buf, p.key, p.opts)
						}
					}()
				}
			}
			probes <- diskProbe{len(jobs), k, kopts}
		}
		jobs = append(jobs, job{o: o, cacheKey: k, opts: kopts})
	}
	r.mu.Unlock()
	if probes == nil {
		return keys, jobs
	}
	close(probes)
	wg.Wait()
	pending := jobs[:0]
	for i, j := range jobs {
		if !hit[i] {
			pending = append(pending, j)
			continue
		}
		r.mu.Lock()
		r.cache[j.cacheKey] = results[i]
		r.mu.Unlock()
		r.logResult("load", j.o, results[i].IPC)
	}
	return keys, pending
}

// diskProbe asks a pendingJobs loader for the entry of jobs[job], whose
// cache key is key and whose options encode as opts.
type diskProbe struct {
	job  int
	key  string
	opts []byte
}

// keyedCell is one key memo entry: a private deep copy of a cell's options
// (cloneOptions), their OptionsHash and the JSON runKey hashed it from.
type keyedCell struct {
	o    engine.Options
	key  string
	opts []byte
}

// cellPrint buckets the key memo: a comparable digest of the option fields
// the figures vary between cells — the core-0 workload, both prefetcher
// specs, the L3 policy (Figure 3), cores, page and warmup. Cells that share
// a print are told apart by sameOptions on the whole options.
type cellPrint struct {
	wl0, l2, l1 specPrint
	l3          string
	cores       int
	page        mem.PageSize
	warmup      uint64
}

// specPrint is a spec's name and an order-free digest of its parameters.
type specPrint struct {
	name   string
	params uint64
}

func printSpec(s spec.Spec) specPrint {
	// Each key=value pair is hashed alone (FNV-1a) and the hashes summed,
	// so map iteration order cannot matter and nothing is allocated.
	var sum uint64
	for k, v := range s.Params {
		sum += fnv64a(fnv64a(fnv64a(14695981039346656037, k), "="), v)
	}
	return specPrint{s.Name, sum}
}

func fnv64a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func printCell(o engine.Options) cellPrint {
	p := cellPrint{l2: printSpec(o.L2PF), l1: printSpec(o.L1PF), l3: o.L3Policy, cores: o.Cores, page: o.Page, warmup: o.Warmup}
	if len(o.Workloads) > 0 {
		p.wl0 = printSpec(o.Workloads[0])
	}
	return p
}

// keyOf returns runKey(o), the key and the options bytes its record
// stores, hashing o only the first time this Runner sees options equal
// (sameOptions) to it: a render of Figures 6, 11 and 12 asks for 144
// distinct cells 384 times. The memo keeps its own deep copy of each cell,
// so a caller that later mutates a spec's Params map in place cannot change
// an entry behind its key. Options naming a trace file are always hashed,
// since their key follows the file's content. r.mu must be held.
func (r *Runner) keyOf(o engine.Options) (key string, opts []byte) {
	for _, w := range o.Workloads {
		if w.Name == "file" {
			return runKey(o)
		}
	}
	p := printCell(o)
	for _, c := range r.keys[p] {
		if sameOptions(c.o, o) {
			return c.key, c.opts
		}
	}
	key, opts = runKey(o)
	r.keys[p] = append(r.keys[p], keyedCell{cloneOptions(o), key, opts})
	return key, opts
}

// sameOptions reports whether a and b are equal exactly as reflect.DeepEqual
// judges engine.Options, field by field and without reflection: a nil
// Workloads slice or Params map differs from an empty one, maps are equal
// when they hold the same pairs whatever their insertion order, and the CPU
// config is a comparable struct. TestOptionsReachHashAndSignature fails if
// a new Options field is missing here; TestSameOptionsIsDeepEqual and
// FuzzSameOptions hold it to DeepEqual.
func sameOptions(a, b engine.Options) bool {
	return a.Cores == b.Cores && a.Page == b.Page && a.L3Policy == b.L3Policy &&
		a.LatePromote == b.LatePromote && a.Instructions == b.Instructions &&
		a.Seed == b.Seed && a.CPU == b.CPU && a.MaxCycles == b.MaxCycles &&
		a.Warmup == b.Warmup && sameSpec(a.L2PF, b.L2PF) && sameSpec(a.L1PF, b.L1PF) &&
		(a.Workloads == nil) == (b.Workloads == nil) && slices.EqualFunc(a.Workloads, b.Workloads, sameSpec)
}

// sameSpec is sameOptions for one workload or prefetcher spec.
func sameSpec(a, b spec.Spec) bool {
	return a.Name == b.Name && (a.Params == nil) == (b.Params == nil) && maps.Equal(a.Params, b.Params)
}

// cloneOptions returns o with its own Workloads slice and parameter maps.
func cloneOptions(o engine.Options) engine.Options {
	o.Workloads = slices.Clone(o.Workloads)
	for i := range o.Workloads {
		o.Workloads[i].Params = maps.Clone(o.Workloads[i].Params)
	}
	o.L2PF.Params = maps.Clone(o.L2PF.Params)
	o.L1PF.Params = maps.Clone(o.L1PF.Params)
	return o
}

// runWith executes j, which pendingJobs found in neither cache, via exec
// and writes the result through to both caches, so a result computed by a
// remote worker lands in the shared disk cache as the same record a local
// run stores. Safe for concurrent use.
func (r *Runner) runWith(j job, exec func() (engine.Result, error)) error {
	res, err := exec()
	if err != nil {
		return err
	}
	r.executed.Add(1)
	r.logResult("ran", j.o, res.IPC)
	r.mu.Lock()
	r.cache[j.cacheKey] = res
	r.mu.Unlock()
	if r.CacheDir != "" {
		if err := newDiskCache(r.CacheDir).store(j.cacheKey, j.opts, res); err != nil {
			r.logf("  cache write failed: %v\n", err)
		}
	}
	return nil
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
