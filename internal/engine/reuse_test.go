package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// reuseJob is one simulation of the reuse suite: built by New, or by Restore
// from snap when it is set.
type reuseJob struct {
	name string
	o    engine.Options
	snap []byte
}

// reuseOutcome is what a job must reproduce whichever machine ran before it.
type reuseOutcome struct {
	result []byte
	digest engine.MachineDigest
}

// run builds the job's machine, runs it, reads it and closes it: engine.Run's
// lifecycle, with the deep digest read before the close.
func (j reuseJob) run() (reuseOutcome, error) {
	var s *engine.Simulation
	var err error
	if j.snap != nil {
		s, err = engine.Restore(j.snap, j.o)
	} else {
		s, err = engine.New(j.o)
	}
	if err != nil {
		return reuseOutcome{}, err
	}
	defer s.Close()
	r, err := s.Run(context.Background())
	if err != nil {
		return reuseOutcome{}, err
	}
	b, err := json.Marshal(r)
	return reuseOutcome{b, s.DeepDigest()}, err
}

// mustRun is run for the test goroutine.
func (j reuseJob) mustRun(t *testing.T) reuseOutcome {
	t.Helper()
	out, err := j.run()
	if err != nil {
		t.Fatalf("%s: %v", j.name, err)
	}
	return out
}

// reuseJobs is a mixed sequence, largest machine first: 4, 2 and 1 cores,
// 4KB and 4MB pages, the 5P, LRU and DRRIP L3 policies, and one machine
// restored from a warmup snapshot.
func reuseJobs(t *testing.T) []reuseJob {
	small := func(workload string, cores int, page mem.PageSize, l3 string) engine.Options {
		o := engine.DefaultOptions(workload)
		o.Instructions = 20_000
		o.Cores, o.Page, o.L3Policy = cores, page, l3
		return o
	}
	quad := small("429.mcf", 4, mem.Page4K, "5P")
	quad.L2PF = prefetch.MustSpec("bo")
	warm := warmed("403.gcc")
	warm.Cores = 2
	leg, snap := warmupLeg(t, warm)
	leg.Close()
	return []reuseJob{
		{name: "4-core/4KB/5P/bo", o: quad},
		{name: "2-core/4KB/5P restored", o: warm, snap: snap},
		{name: "2-core/4MB/LRU", o: small("433.milc", 2, mem.Page4M, "LRU")},
		{name: "1-core/4MB/5P", o: small("470.lbm", 1, mem.Page4M, "5P")},
		{name: "1-core/4KB/DRRIP", o: small("462.libquantum", 1, mem.Page4K, "DRRIP")},
	}
}

// TestReuseIsInvisible runs the mixed sequence largest machine first, then in
// reverse, so every job's machine is built from arrays another job released.
// A job's Result bytes and deep machine digest must not depend on which one.
// Dropping the clear on reuse fails it.
func TestReuseIsInvisible(t *testing.T) {
	jobs := reuseJobs(t)
	want := make([]reuseOutcome, len(jobs))
	for i, j := range jobs {
		want[i] = j.mustRun(t)
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		got := jobs[i].mustRun(t)
		if !bytes.Equal(got.result, want[i].result) {
			t.Errorf("%s: result depends on the machine that ran before it\nlargest first: %s\nreversed:      %s",
				jobs[i].name, want[i].result, got.result)
		}
		if !reflect.DeepEqual(got.digest, want[i].digest) {
			t.Errorf("%s: machine digest depends on the machine that ran before it", jobs[i].name)
		}
	}

	// Under -race: the free list is shared by every simulation in the process.
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i, j := range jobs {
					got, err := j.run()
					if err != nil {
						t.Errorf("%s: %v", j.name, err)
					} else if !bytes.Equal(got.result, want[i].result) {
						t.Errorf("%s: result differs when machines are built and closed concurrently", j.name)
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestClosedSimulation pins what Close leaves behind. A closed machine
// refuses Step, Run and Checkpoint (even at the barrier, where Checkpoint is
// otherwise valid), still reports its measurements, and holds no cache array:
// a stray access panics instead of writing into the machine that took them.
// A second Close is a no-op, so two machines built next do not share arrays.
func TestClosedSimulation(t *testing.T) {
	o := warmed("456.hmmer")
	ref, err := run(o)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := warmupLeg(t, o)
	before := resultJSON(t, s.Snapshot())
	s.Close()
	closed := func(op string, err error) {
		if err == nil || !strings.Contains(err.Error(), "closed") {
			t.Errorf("%s on a closed simulation: error %v, want the closed error", op, err)
		}
	}
	_, err = s.Step(1)
	closed("Step", err)
	_, err = s.Run(context.Background())
	closed("Run", err)
	_, err = s.Checkpoint()
	closed("Checkpoint", err)
	if got := resultJSON(t, s.Snapshot()); !bytes.Equal(got, before) {
		t.Errorf("Snapshot changed across Close\nbefore: %s\nafter:  %s", before, got)
	}
	s.Close()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a stray access to a closed machine did not panic")
			}
		}()
		s.StrayDemand()
	}()

	// Run two live machines in lock step: were any array released twice,
	// both would hold it and each would scribble on the other's caches.
	a, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()
	for !a.Done() || !b.Done() {
		for _, m := range []*engine.Simulation{a, b} {
			if _, err := m.Step(1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := resultJSON(t, ref)
	for _, m := range []*engine.Simulation{a, b} {
		if got := resultJSON(t, m.Snapshot()); !bytes.Equal(got, want) {
			t.Errorf("machines built after a double Close diverge from a lone run\n got %s\nwant %s", got, want)
		}
	}
}

// TestRunReusesTheMachine is the point of Close: engine.Run returns its
// machine's arrays, so the next run builds its 3MB of L3 lines and stamps
// from them. More runs than the free list keeps arrays of one length (8):
// were one run not to close, a later one would find the list empty.
func TestRunReusesTheMachine(t *testing.T) {
	o := quick("416.gamess")
	o.Instructions = 10_000
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := run(o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
			t.Fatalf("run %d allocated %d bytes, want under 1MB", i, got)
		}
	}
}
