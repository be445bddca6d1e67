package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
)

// newRunner builds the Runner every sweep workload renders through: the
// quick row and configuration subsets, the workload's instruction counts
// and the seed. Cache and checkpoint directories are the caller's.
func newRunner(w workload, seed uint64, workers int) *experiments.Runner {
	r := experiments.NewRunner(w.Instr, experiments.QuickConfigs())
	r.Benchmarks = experiments.QuickBenchmarks()
	if w.Rows > 0 {
		r.Benchmarks = r.Benchmarks[:w.Rows]
	}
	r.Seed = seed
	r.Workers = workers
	r.Warmup = w.Warmup
	return r
}

// render prints the sweep targets on r. The figure builders panic when a
// job fails; that is reported as the render's error.
func render(r *experiments.Runner) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("render: %v", p)
		}
	}()
	var buf bytes.Buffer
	for _, target := range sweepTargets {
		if err := experiments.RenderTarget(r, target, true, &buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// sweepRep renders the workload once. idx names the rep's private cache or
// checkpoint directory under in.Dir; it is removed again outside the timed
// interval. sims is how many results the render delivered.
func sweepRep(in inputs, idx, workers int, backend experiments.ExecBackend) (out []byte, sims int, wall time.Duration, err error) {
	w := in.Workload
	r := newRunner(w, in.Seed, workers)
	r.Backend = backend
	private := filepath.Join(in.Dir, "rep-"+strconv.Itoa(idx))
	switch w.Mode {
	case sweepCold:
		r.CacheDir = private
	case sweepWarm:
		r.CacheDir = in.CacheDir
	case sweepSharedWarmup:
		r.Checkpoint = true
		r.CheckpointDir = private
	}
	defer os.RemoveAll(private)
	start := time.Now()
	out, err = render(r)
	wall = time.Since(start)
	if err != nil {
		return nil, 0, wall, err
	}
	sims = int(r.Executed())
	if w.Mode == sweepWarm {
		if sims != 0 {
			return nil, 0, wall, fmt.Errorf("warm render executed %d simulations, want 0", sims)
		}
		sims = in.Sims
	}
	return out, sims, wall, nil
}

// measureSweep is the untraced pass of a sweep workload.
func measureSweep(in inputs, ready func()) childResult {
	var out childResult
	ref, _, _, err := sweepRep(in, 0, sweepWorkers, nil)
	if err != nil {
		out.Attempted = 1
		out.fail("warm-up render: %v", err)
		ready()
		return out
	}
	out.Digest = digestBytes(ref)
	if in.Workload.Mode == sweepWarm && out.Digest != in.ColdDigest {
		out.Attempted = 1
		out.fail("warm render bytes differ from the cold render that populated the cache")
	}
	settle()
	ready()
	deadline := time.Now().Add(time.Duration(in.Seconds * float64(time.Second)))
	for len(out.Reps) < in.MinReps || time.Now().Before(deadline) {
		idx := len(out.Reps) + 1
		b, sims, wall, err := sweepRep(in, idx, sweepWorkers, nil)
		if err != nil {
			out.Attempted++
			out.fail("rep %d: %v", idx, err)
			break
		}
		out.Attempted += sims
		if digestBytes(b) != out.Digest {
			out.fail("rep %d: rendered bytes differ from rep 0", idx)
		}
		out.Reps = append(out.Reps, rep{WallS: wall.Seconds(), Slowdown: 1, Sims: sims, Instr: uint64(sims) * in.Workload.Instr})
		settle()
	}
	return out
}

// tracedBackend executes the scheduler's jobs as the in-process pool does
// (engine.New or engine.Restore, then Run) and records each job as a span
// with its construction and run as children.
type tracedBackend struct {
	rec     *recorder
	parent  int // the render's span
	rep     int
	workers int

	mu      sync.Mutex
	results []engine.Result
	newMS   []float64 // construction: engine.New, or snapshot read + engine.Restore
	jobMS   []float64
}

var _ experiments.CheckpointBackend = (*tracedBackend)(nil)

func (b *tracedBackend) Slots() int { return b.workers }

func (b *tracedBackend) SlotLabel(slot int) string { return "traced/" + strconv.Itoa(slot) }

func (b *tracedBackend) Run(slot int, o engine.Options) (engine.Result, error) {
	start := time.Now()
	s, err := engine.New(o)
	if err != nil {
		return engine.Result{}, err
	}
	return b.finish(slot, "engine.New", s, start)
}

func (b *tracedBackend) RunFrom(slot int, o engine.Options, checkpointPath, _ string) (engine.Result, error) {
	start := time.Now()
	data, err := os.ReadFile(checkpointPath)
	if err != nil {
		return b.Run(slot, o)
	}
	s, err := engine.Restore(data, o)
	if err != nil {
		return b.Run(slot, o)
	}
	return b.finish(slot, "engine.Restore", s, start)
}

func (b *tracedBackend) finish(slot int, how string, s *engine.Simulation, start time.Time) (engine.Result, error) {
	built := time.Now()
	res, err := s.Run(context.Background())
	end := time.Now()
	if err != nil {
		return engine.Result{}, err
	}
	job := b.rec.interval("experiments.job", b.parent, b.rep, slot, start, end)
	b.rec.interval(how, job, b.rep, slot, start, built)
	b.rec.interval("engine.Run", job, b.rep, slot, built, end)
	b.mu.Lock()
	b.results = append(b.results, res)
	b.newMS = append(b.newMS, millis(built.Sub(start)))
	b.jobMS = append(b.jobMS, millis(end.Sub(start)))
	b.mu.Unlock()
	return res, nil
}

// coverage returns the total length of the union of the job spans of one
// rep and the sum of their lengths.
func coverage(spans []span, rep int) (union, sum int64) {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		if s.Name == "experiments.job" && s.Rep == rep {
			ivs = append(ivs, iv{s.StartNS, s.EndNS})
			sum += s.EndNS - s.StartNS
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var end int64 = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			union += v.b - v.a
			end = v.b
		} else if v.b > end {
			union += v.b - end
			end = v.b
		}
	}
	return union, sum
}

// traceSweep is the traced pass of a sweep workload. Rep 0 is the untraced
// render the others are compared with; rep 1 runs on the traced backend.
func traceSweep(in inputs, rec *recorder) childResult {
	out := childResult{Layer: map[string]float64{}}
	l := out.Layer
	w := in.Workload

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ref, sims, plainWall, err := sweepRep(in, 0, sweepWorkers, nil)
	allocs, allocMB := allocDelta(ms)
	if err != nil {
		out.Attempted = 1
		out.fail("untraced render: %v", err)
		return out
	}
	out.Attempted = sims
	out.Digest = digestBytes(ref)
	if w.Mode == sweepWarm && out.Digest != in.ColdDigest {
		out.fail("warm render bytes differ from the cold render that populated the cache")
	}
	l["engine.allocs_per_sim"] = allocs / float64(sims)
	l["engine.alloc_mb_per_sim"] = allocMB / float64(sims)

	start := time.Now()
	tb := &tracedBackend{rec: rec, rep: 1, workers: sweepWorkers,
		parent: rec.interval("experiments.render", 0, 1, 0, start, start)}
	b, sims, tracedWall, err := sweepRep(in, 1, sweepWorkers, tb)
	rec.setEnd(tb.parent, start.Add(tracedWall))
	if err != nil {
		out.Attempted++
		out.fail("traced render: %v", err)
		return out
	}
	out.Attempted += sims
	if digestBytes(b) != out.Digest {
		out.fail("traced render bytes differ from the untraced render")
	}
	l["experiments.job_spans"] = float64(len(tb.jobMS))
	if len(tb.jobMS) > 0 { // sweep-warm executes nothing: no job-derived metric
		union, sum := coverage(rec.spans, 1)
		l["experiments.job_ms_p50"] = median(tb.jobMS)
		l["experiments.self_share"] = 1 - float64(union)/float64(tracedWall)
		l["experiments.slot_idle_share"] = 1 - float64(sum)/(float64(sweepWorkers)*float64(tracedWall))
		if w.Mode == sweepSharedWarmup {
			// Every variant is built by Restore (snapshot read included), not New.
			l["engine.restore_ms"] = median(tb.newMS)
		} else {
			l["engine.new_ms"] = median(tb.newMS)
		}
		simCounts(l, tb.results)
	}
	l["engine.trace_overhead_ratio"] = tracedWall.Seconds() / plainWall.Seconds()
	cal := newCalibrator()
	for i := 0; i < 200; i++ {
		cal.batch()
	}
	l["engine.timer_ns"] = cal.cost().Pair

	if w.Mode != sweepWarm {
		// One worker against two: what the scheduler's parallelism buys.
		b, sims, serialWall, err := sweepRep(in, 2, 1, nil)
		out.Attempted += sims
		if err != nil {
			out.Attempted++
			out.fail("serial render: %v", err)
			return out
		}
		if digestBytes(b) != out.Digest {
			out.fail("serial render bytes differ from the parallel render")
		}
		l["experiments.parallel_speedup"] = serialWall.Seconds() / plainWall.Seconds()
	}

	switch w.Mode {
	case sweepCold:
		jobs, err := enumerate(w, in.Seed)
		if err != nil {
			out.fail("enumerating jobs: %v", err)
			return out
		}
		optionsHashKernel(l, jobs)
		if err := distribKernels(l, in, jobs, out.Digest); err != nil {
			out.fail("distrib: %v", err)
		}
	case sweepWarm:
		if err := warmKernels(l, in, rec, out.Digest, &out); err != nil {
			out.fail("warm renders: %v", err)
		}
	case sweepSharedWarmup:
		// Repeated warmup: every variant replays its own warmup region.
		// Shared-warmup bytes must equal these.
		r := newRunner(w, in.Seed, sweepWorkers)
		start := time.Now()
		b, err := render(r)
		repeatedWall := time.Since(start)
		out.Attempted += int(r.Executed())
		if err != nil {
			out.fail("repeated-warmup render: %v", err)
			return out
		}
		if digestBytes(b) != out.Digest {
			out.fail("shared-warmup bytes differ from repeated-warmup bytes")
		}
		l["experiments.shared_vs_repeated_speedup"] = repeatedWall.Seconds() / plainWall.Seconds()
		if err := checkpointKernels(l, in); err != nil {
			out.fail("checkpoint kernels: %v", err)
		}
	}
	return out
}

// recordingBackend answers every job with a harmless placeholder and keeps
// its options: one render on it enumerates the sweep's distinct jobs.
type recordingBackend struct {
	mu   sync.Mutex
	jobs []engine.Options
}

func (b *recordingBackend) Slots() int           { return 1 }
func (b *recordingBackend) SlotLabel(int) string { return "recording" }
func (b *recordingBackend) Run(_ int, o engine.Options) (engine.Result, error) {
	b.mu.Lock()
	b.jobs = append(b.jobs, o)
	b.mu.Unlock()
	// Non-zero placeholders: speedup and geometric-mean math reject zeros.
	return engine.Result{IPC: 1, DRAMAccessesPerKI: 1}, nil
}

// enumerate lists the distinct simulations one render of the workload needs.
func enumerate(w workload, seed uint64) ([]engine.Options, error) {
	rb := &recordingBackend{}
	r := newRunner(w, seed, 1)
	r.Backend = rb
	if _, err := render(r); err != nil {
		return nil, err
	}
	return rb.jobs, nil
}
