package experiments

import (
	"context"
	"os"
	"runtime"
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

// RunFrom implements CheckpointBackend: restore the snapshot and run the
// measured region. Any problem with the snapshot — unreadable, corrupt,
// version-skewed, signed for a different warmup — falls back to the full
// run, which the engine's determinism guarantee makes byte-identical.
func (b localBackend) RunFrom(slot int, o engine.Options, checkpointPath, _ string) (engine.Result, error) {
	data, err := os.ReadFile(checkpointPath)
	if err != nil {
		return b.Run(slot, o)
	}
	s, err := engine.Restore(data, o)
	if err != nil {
		return b.Run(slot, o)
	}
	return s.Run(context.Background())
}

// backend resolves the Runner's execution backend: the configured one, or
// the in-process pool bounded by Workers.
func (r *Runner) backend() ExecBackend {
	if r.Backend != nil {
		return r.Backend
	}
	return localBackend{workers: r.Workers}
}
