package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"bopsim/internal/distrib"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// Standalone kernels: layers that cannot be decorated from outside (dram,
// and every registered prefetcher uniformly) and costs that only show
// between simulations (checkpoint codec, cache reads, the distrib wire) are
// block-timed here. Each kernel belongs to the workload whose layer it
// prices and runs in that workload's traced pass only.

// sink keeps kernel results observable so the compiler cannot drop the
// timed calls.
var sink uint64

// traceKernels prices the front end's input: the synthetic generator of the
// workload, and the memory-mapped replay of a recording of it.
func traceKernels(l map[string]float64, in inputs, o engine.Options) error {
	n := uint64(4_000_000 / in.KernelScale)
	spec := o.Normalized().Workloads[0]
	gen, err := trace.NewGenerator(spec, o.Seed)
	if err != nil {
		return err
	}
	l["trace.synth_next_ns"] = timeNext(gen, n)

	path := filepath.Join(in.Dir, "kernel.trace")
	rec, err := trace.NewGenerator(spec, o.Seed)
	if err != nil {
		return err
	}
	if err := trace.WriteTraceFile(path, rec, n); err != nil {
		return err
	}
	ft, err := trace.OpenTraceFile(path)
	if err != nil {
		return err
	}
	l["trace.file_next_ns"] = timeNext(ft, n)
	return nil
}

func timeNext(gen trace.Generator, n uint64) float64 {
	start := time.Now()
	for i := uint64(0); i < n; i++ {
		sink += uint64(gen.Next().VA)
	}
	return float64(time.Since(start)) / float64(n)
}

// dramKernels drives the DRAM model alone: reads of consecutive lines (row
// hits, both channels) and of LCG-scattered lines (row conflicts), each
// enqueued as soon as the read queue accepts it.
func dramKernels(l map[string]float64, scale int) {
	n := 400_000 / scale
	run := func(line func(i int) mem.LineAddr) float64 {
		m := dram.New(dram.DefaultParams(1))
		now := uint64(0)
		start := time.Now()
		for i := 0; i < n; i++ {
			for m.EnqueueRead(line(i), 0, dram.Pending()) == nil {
				m.Tick(now)
				now++
			}
			m.Tick(now)
			now++
		}
		sink += now
		return float64(time.Since(start)) / float64(n)
	}
	l["dram.stream_ns_per_read"] = run(func(i int) mem.LineAddr { return mem.LineAddr(i) })
	x := uint64(12345)
	l["dram.random_ns_per_read"] = run(func(int) mem.LineAddr {
		x = x*6364136223846793005 + 1442695040888963407
		return mem.LineAddr(x >> 24)
	})
}

// prefetchKernels replays the call stream core 0's L2 prefetcher received
// during the traced simulation into a fresh instance of every priced
// prefetcher. The clock is read once per run of same-kind calls, so the
// timer's own cost is spread over the run instead of charged per call.
func prefetchKernels(l map[string]float64, events []pfEvent, o engine.Options, tc timerCost) {
	for _, name := range pricedPrefetchers {
		p, err := prefetch.NewL2(prefetch.Spec{Name: name}, o.Page)
		if err != nil {
			continue // no longer registered: the metric reads 0
		}
		var acc, fill callClock
		for i := 0; i < len(events); {
			j := i
			t0 := time.Now()
			if events[i].fill {
				for ; j < len(events) && events[j].fill; j++ {
					p.OnFill(events[j].line, events[j].wasPrefetch)
				}
			} else {
				for ; j < len(events) && !events[j].fill; j++ {
					sink += uint64(len(p.OnAccess(events[j].access)))
				}
			}
			d := time.Since(t0)
			c := &acc
			if events[i].fill {
				c = &fill
			}
			c.ns += int64(d) - int64(tc.Gap)
			c.calls += int64(j - i)
			i = j
		}
		l["prefetch."+name+".on_access_ns"] = perCall(max(0, float64(acc.ns)), acc.calls)
		l["prefetch."+name+".on_fill_ns"] = perCall(max(0, float64(fill.ns)), fill.calls)
	}
}

// checkpointKernels prices warmup sharing on one representative variant of
// the shared-warmup sweep: the warmup leg a checkpoint saves, the snapshot
// itself, and what the Restore every variant pays instead allocates (its
// time is read off the sweep's own job spans).
func checkpointKernels(l map[string]float64, in inputs) error {
	w := in.Workload
	o := engine.DefaultOptions("429.mcf")
	o.Instructions = w.Instr
	o.Warmup = w.Warmup
	o.Seed = in.Seed
	o.L2PF = prefetch.Spec{Name: "bo"}
	var leg, save, kb, allocs, allocMB []float64
	for i := 0; i < 5; i++ {
		s, err := engine.New(o)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := s.RunWarmup(context.Background()); err != nil {
			return err
		}
		t1 := time.Now()
		data, err := s.Checkpoint()
		if err != nil {
			return err
		}
		t2 := time.Now()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if _, err := engine.Restore(data, o); err != nil {
			return err
		}
		a, mb := allocDelta(ms)
		leg = append(leg, millis(t1.Sub(t0)))
		save = append(save, millis(t2.Sub(t1)))
		kb = append(kb, float64(len(data))/1024)
		allocs = append(allocs, a)
		allocMB = append(allocMB, mb)
	}
	l["engine.warmup_leg_ms"] = median(leg)
	l["engine.checkpoint_ms"] = median(save)
	l["engine.checkpoint_kb"] = median(kb)
	l["engine.restore_allocs"] = median(allocs)
	l["engine.restore_alloc_mb"] = median(allocMB)
	return nil
}

// optionsHashKernel prices the cache key of one job.
func optionsHashKernel(l map[string]float64, jobs []engine.Options) {
	var per []float64
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		for _, o := range jobs {
			sink += uint64(len(experiments.OptionsHash(o)))
		}
		per = append(per, float64(time.Since(start))/float64(time.Microsecond)/float64(len(jobs)))
	}
	l["experiments.options_hash_us"] = median(per)
}

// warmKernels is sweep-warm's traced pass proper: renders against the
// populated cache, each a span, and the cost of loading one entry.
func warmKernels(l map[string]float64, in inputs, rec *recorder, digest string, out *childResult) error {
	// 300 renders at every scale: fifteen samples lie beyond the 95th
	// percentile.
	var walls []float64
	for i := 0; i < 300; i++ {
		start := time.Now()
		b, sims, wall, err := sweepRep(in, 0, sweepWorkers, nil)
		if err != nil {
			return err
		}
		out.Attempted += sims
		if digestBytes(b) != digest {
			out.fail("warm render %d: bytes differ", i)
		}
		rec.interval("experiments.render", 0, 2+i, 0, start, start.Add(wall))
		walls = append(walls, millis(wall))
	}
	l["experiments.render_ms_p50"] = median(walls)
	l["experiments.render_ms_p95"] = quantile(sorted(walls), 0.95)

	jobs, err := enumerate(in.Workload, in.Seed)
	if err != nil {
		return err
	}
	var per []float64
	for pass := 0; pass < 5; pass++ {
		r := newRunner(in.Workload, in.Seed, sweepWorkers)
		r.CacheDir = in.CacheDir
		start := time.Now()
		if err := r.RunJobs(jobs); err != nil {
			return err
		}
		wall := time.Since(start)
		if r.Executed() != 0 {
			return fmt.Errorf("cache load executed %d simulations", r.Executed())
		}
		per = append(per, float64(wall)/float64(time.Microsecond)/float64(len(jobs)))
	}
	l["experiments.cache_load_us_per_entry"] = median(per)
	return nil
}

// distribKernels prices the distrib wire against an in-process worker on a
// loopback listener: the per-job overhead over a direct engine run, and one
// whole sweep-cold render fanned out through the pool, whose bytes must
// equal the local render's.
func distribKernels(l map[string]float64, in inputs, jobs []engine.Options, localDigest string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: (&distrib.Server{Capacity: sweepWorkers}).Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed once Close is called below
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	pool, err := distrib.Dial([]string{ln.Addr().String()}, distrib.RetryPolicy{Backoff: -1})
	if err != nil {
		return err
	}
	defer pool.Close()

	sample := jobs[:min(16, len(jobs))]
	start := time.Now()
	for _, o := range sample {
		if _, _, _, err := simulate(o); err != nil {
			return err
		}
	}
	direct := time.Since(start)
	start = time.Now()
	for _, o := range sample {
		if _, err := pool.Run(0, o); err != nil {
			return err
		}
	}
	remote := time.Since(start)
	l["distrib.job_overhead_ms"] = millis(remote-direct) / float64(len(sample))

	b, sims, wall, err := sweepRep(in, 3, sweepWorkers, pool)
	if err != nil {
		return err
	}
	if digestBytes(b) != localDigest {
		return fmt.Errorf("loopback render bytes differ from the local render")
	}
	l["distrib.sweep_sims_per_s"] = float64(sims) / wall.Seconds()
	return nil
}
