package experiments

import (
	"context"
	"os"
	"runtime"
	"slices"
	"strconv"

	"bopsim/internal/engine"
)

// ExecBackend is where the scheduler's jobs actually execute. RunJobs owns
// the dispatch loop — dedup, caching, retry accounting, progress — and
// drives one feeder goroutine per backend slot; the backend only has to
// turn one engine.Options into one engine.Result.
//
// The default backend is the in-process pool below. internal/distrib
// provides a remote one (an HTTP fan-out over a fleet of boworkerd
// daemons) that satisfies this interface without this package importing
// it; cmd/experiments wires the two together.
//
// Implementations must be safe for concurrent Run calls on distinct
// slots. Slot numbers are stable for the lifetime of the backend, so an
// implementation may use them for affinity (the remote pool homes each
// slot on the worker that contributed it).
type ExecBackend interface {
	// Slots returns how many simulations the backend can execute
	// concurrently. RunJobs never issues more than this many Run calls
	// at once.
	Slots() int
	// SlotLabel names one slot for status displays ("local/3",
	// "10.0.0.7:9123#1"). Labels are informational only.
	SlotLabel(slot int) string
	// Run executes one simulation to completion on the given slot.
	Run(slot int, o engine.Options) (engine.Result, error)
}

// CheckpointBackend is optionally implemented by backends that can fork a
// run from a warmup checkpoint instead of replaying the warmup. The
// checkpoint is identified both by a local path (the coordinator's copy)
// and by its content SHA-256 (what a remote worker resolves against its
// own directories). Implementations fall back to a full run whenever the
// snapshot cannot be used — a checkpoint is an optimization, never a
// correctness dependency — so RunFrom must return exactly what Run would.
type CheckpointBackend interface {
	RunFrom(slot int, o engine.Options, checkpointPath, checkpointSHA string) (engine.Result, error)
}

// localBackend is the historical in-process worker pool: every slot is a
// goroutine in this process calling engine.Run directly.
type localBackend struct{ workers int }

var _ CheckpointBackend = localBackend{}

func (b localBackend) Slots() int {
	if b.workers > 0 {
		return b.workers
	}
	return runtime.GOMAXPROCS(0)
}

func (b localBackend) SlotLabel(slot int) string { return "local/" + strconv.Itoa(slot) }

func (b localBackend) Run(_ int, o engine.Options) (engine.Result, error) {
	return engine.Run(context.Background(), o)
}

// RunFrom implements CheckpointBackend.
func (localBackend) RunFrom(_ int, o engine.Options, checkpointPath, _ string) (engine.Result, error) {
	res, _, err := RunFromCheckpoint(context.Background(), o, checkpointPath)
	return res, err
}

// RunFromCheckpoint runs o to completion under ctx, forking the measured
// region from the warmup snapshot at checkpointPath; forked reports whether
// it did. Any problem with the snapshot — none given, unreadable, corrupt,
// version-skewed, signed for a different warmup — falls back to the full
// run, which the engine's determinism guarantee makes byte-identical. The
// snapshot is read into a recycled buffer (snapshotBufs), handed back as
// soon as Restore returns, and the machine is closed when the run ends, so
// the next run reuses the memory of both.
func RunFromCheckpoint(ctx context.Context, o engine.Options, checkpointPath string) (res engine.Result, forked bool, err error) {
	var s *engine.Simulation
	if checkpointPath != "" {
		// Sized from the file first, one byte over for the read that finds
		// its end: a recycled buffer then grows at most once, to what this
		// snapshot needs, and never by readFile's doubling, which would
		// leave the list holding buffers up to twice a snapshot.
		buf := snapshotBufs.get()
		if fi, err := os.Stat(checkpointPath); err == nil {
			buf = slices.Grow(buf, int(fi.Size())+1)
		}
		buf, ok := readFile(buf, checkpointPath)
		if ok {
			s, _ = engine.Restore(buf, o)
		}
		snapshotBufs.put(buf)
	}
	forked = s != nil
	if !forked {
		if s, err = engine.New(o); err != nil {
			return engine.Result{}, false, err
		}
	}
	defer s.Close()
	res, err = s.Run(ctx)
	return res, forked, err
}

// backend resolves the Runner's execution backend: the configured one, or
// the in-process pool bounded by Workers.
func (r *Runner) backend() ExecBackend {
	if r.Backend != nil {
		return r.Backend
	}
	return localBackend{workers: r.Workers}
}
