package engine_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

func quick(workload string) engine.Options {
	o := engine.DefaultOptions(workload)
	o.Instructions = 60_000
	return o
}

// TestStepMatchesRun drives a simulation in uneven Step chunks and checks
// the final snapshot is identical to the one-shot engine.Run — the
// stepping API must not change the simulated machine.
func TestStepMatchesRun(t *testing.T) {
	o := quick("433.milc")
	o.Page = mem.Page4M
	o.L2PF = prefetch.MustSpec("bo")

	want, err := run(o)
	if err != nil {
		t.Fatal(err)
	}

	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	chunk := uint64(1)
	for {
		done, err := s.Step(chunk)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		chunk = chunk*2 + 1 // deliberately uneven chunk sizes
	}
	got := s.Snapshot()
	if got.Cycles != want.Cycles || got.IPC != want.IPC {
		t.Errorf("stepped run: %d cycles IPC %.6f, engine.Run: %d cycles IPC %.6f",
			got.Cycles, got.IPC, want.Cycles, want.IPC)
	}
	if got.FinalBOOffset != want.FinalBOOffset {
		t.Errorf("stepped BO offset %d, engine.Run %d", got.FinalBOOffset, want.FinalBOOffset)
	}
	if got.Hier != want.Hier {
		t.Errorf("hierarchy stats diverge:\nstepped %+v\nrun     %+v", got.Hier, want.Hier)
	}
}

// TestRunCancellation checks Run(ctx) returns promptly — not at the end of
// the run — when the context is cancelled mid-simulation.
func TestRunCancellation(t *testing.T) {
	o := engine.DefaultOptions("433.milc")
	o.Instructions = 200_000_000 // far more than can finish during the test
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = s.Run(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("Run took %v to observe cancellation", elapsed)
	}
	// The partial run is still observable.
	snap := s.Snapshot()
	if snap.Cycles == 0 || snap.Instructions == 0 {
		t.Errorf("post-cancel snapshot empty: %d cycles, %d instructions", snap.Cycles, snap.Instructions)
	}
}

// TestWedgeDetection checks an unfinishable cycle budget reports a wedge,
// and that the error is sticky.
func TestWedgeDetection(t *testing.T) {
	o := quick("416.gamess")
	o.MaxCycles = 100
	s, err := engine.New(o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background()); err == nil {
		t.Fatal("wedged run returned no error")
	}
	if _, err := s.Step(1); err == nil {
		t.Error("wedge error not sticky across Step")
	}
}

// TestSnapshotMidRun checks a snapshot is valid before completion.
func TestSnapshotMidRun(t *testing.T) {
	s, err := engine.New(quick("462.libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Done() {
		t.Fatal("fresh simulation already done")
	}
	if snap := s.Snapshot(); snap.Cycles != 0 || snap.IPC != 0 {
		t.Errorf("pre-run snapshot not empty: %+v", snap)
	}
	if _, err := s.Step(10_000); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Cycles != 10_000 {
		t.Errorf("after Step(10000): %d cycles", snap.Cycles)
	}
	if snap.IPC <= 0 || snap.Instructions == 0 {
		t.Errorf("mid-run snapshot has no progress: %+v", snap)
	}
}

// TestNormalized checks zero values resolve to the concrete baseline
// defaults, so option spellings that mean the same run compare equal.
func TestNormalized(t *testing.T) {
	n := engine.Options{Workloads: []trace.Spec{{Name: "429.mcf"}}, Cores: 1}.Normalized()
	if n.Instructions != 500_000 {
		t.Errorf("Instructions = %d", n.Instructions)
	}
	if n.L2PF.String() != "nextline" || n.L1PF.String() != "stride" || n.L3Policy != "5P" {
		t.Errorf("prefetcher/policy defaults: %q %q %q", n.L2PF, n.L1PF, n.L3Policy)
	}
	if n.CPU.ROBSize == 0 || n.MaxCycles == 0 {
		t.Errorf("CPU/MaxCycles defaults missing: %+v", n)
	}
	// Normalization is idempotent and preserves explicit settings.
	if n2 := n.Normalized(); !reflect.DeepEqual(n2, n) {
		t.Errorf("Normalized not idempotent:\n%+v\n%+v", n2, n)
	}
	// Specs spelling out registered defaults normalize to the bare name.
	sp := engine.Options{Workloads: []trace.Spec{{Name: "429.mcf"}}, Cores: 1,
		L2PF: prefetch.MustSpec("bo:scoremax=31,badscore=5")}.Normalized()
	if sp.L2PF.String() != "bo:badscore=5" {
		t.Errorf("normalized spec = %q, want bo:badscore=5", sp.L2PF)
	}
}

// TestInvalidOptionsRejected extends TestInvalidOptions' checks to registry
// errors, at New.
func TestInvalidOptionsRejected(t *testing.T) {
	o := quick("416.gamess")
	o.Cores = 5
	if _, err := engine.New(o); err == nil {
		t.Error("5 cores accepted")
	}
	o = quick("416.gamess")
	o.L2PF = prefetch.Spec{Name: "garbage"}
	if _, err := engine.New(o); err == nil {
		t.Error("unknown prefetcher accepted")
	}
	o = quick("416.gamess")
	o.Workloads = nil
	if _, err := engine.New(o); err == nil {
		t.Error("empty workload list accepted (would silently measure the satellite default)")
	}
	o = quick("416.gamess")
	o.Workloads = []trace.Spec{{Name: "416.gamess"}, {Name: "stream"}}
	if _, err := engine.New(o); err == nil {
		t.Error("more workload specs than cores accepted")
	}
	o = quick("416.gamess")
	o.L2PF = prefetch.MustSpec("bo:nosuchparam=1")
	if _, err := engine.New(o); err == nil {
		t.Error("unknown prefetcher parameter accepted")
	}
	o = quick("416.gamess")
	o.L2PF = prefetch.MustSpec("offset:d=zero")
	if _, err := engine.New(o); err == nil {
		t.Error("malformed parameter value accepted")
	}
	o = quick("416.gamess")
	o.L1PF = prefetch.Spec{Name: "bo"} // an L2-only name in the L1 slot
	if _, err := engine.New(o); err == nil {
		t.Error("L2-only prefetcher accepted in the L1 slot")
	}
}
