package experiments

import (
	"encoding/json"
	"net/http"
	"time"
)

// This file is the Runner's observability surface: execute maintains a
// ProgressStatus snapshot of the current (or last) job set — per-slot
// assignments included — and StatusHandler serves it as JSON, so a long
// `experiments -all -status :port` sweep can be watched from outside the
// process (and, when a distrib backend is wired in, shows which remote
// worker each simulation is on).

// SlotStatus is one execution slot's current assignment.
type SlotStatus struct {
	// Label names the slot ("local/3", "10.0.0.7:9123#1").
	Label string `json:"label"`
	// Job describes the simulation currently executing on the slot, or
	// "" when the slot is idle.
	Job string `json:"job,omitempty"`
}

// ProgressStatus is a point-in-time snapshot of the scheduler.
type ProgressStatus struct {
	// Active reports whether a job set is currently executing.
	Active bool `json:"active"`
	// Done and Total count the current (or, when idle, the last) job
	// set's scheduled simulations.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Executed counts simulations this Runner actually executed over its
	// lifetime (cache hits excluded), mirroring Runner.Executed.
	Executed uint64 `json:"executed"`
	// ElapsedSeconds is the wall time since the current job set started
	// (frozen at completion time once it finishes).
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// SimsPerSec is Done/ElapsedSeconds for the current job set.
	SimsPerSec float64 `json:"sims_per_sec"`
	// Slots lists every execution slot and its current assignment.
	Slots []SlotStatus `json:"slots"`
}

// Status returns a snapshot of the scheduler's progress. Safe for
// concurrent use; cmd/experiments serves it over HTTP via StatusHandler.
func (r *Runner) Status() ProgressStatus {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	s := r.status
	s.Slots = append([]SlotStatus(nil), r.status.Slots...)
	if s.Active && !r.setStart.IsZero() {
		s.ElapsedSeconds = time.Since(r.setStart).Seconds()
	}
	if s.ElapsedSeconds > 0 {
		s.SimsPerSec = float64(s.Done) / s.ElapsedSeconds
	}
	s.Executed = r.Executed()
	return s
}

// beginJobSet resets the status snapshot for a new job set.
func (r *Runner) beginJobSet(backend ExecBackend, slots, total int) {
	labels := make([]SlotStatus, slots)
	for i := range labels {
		labels[i] = SlotStatus{Label: backend.SlotLabel(i)}
	}
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	r.setStart = time.Now()
	r.status = ProgressStatus{Active: true, Total: total, Slots: labels}
}

// endJobSet freezes the snapshot when execute returns: elapsed time stops
// advancing and every slot reads idle.
func (r *Runner) endJobSet() {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	r.status.Active = false
	if !r.setStart.IsZero() {
		r.status.ElapsedSeconds = time.Since(r.setStart).Seconds()
	}
	for i := range r.status.Slots {
		r.status.Slots[i].Job = ""
	}
}

// setAssignment records what slot is executing (""= idle).
func (r *Runner) setAssignment(slot int, job string) {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	if slot < len(r.status.Slots) {
		r.status.Slots[slot].Job = job
	}
}

// noteDone advances the snapshot's completion counter monotonically
// (worker completions can report out of order).
func (r *Runner) noteDone(done int) {
	r.statusMu.Lock()
	defer r.statusMu.Unlock()
	if done > r.status.Done {
		r.status.Done = done
	}
}

// StatusHandler serves the Runner's progress snapshot as JSON on every
// GET ("/" and "/progress" alike), for `experiments -status :port`.
func StatusHandler(r *Runner) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(r.Status())
	})
}
