package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"bopsim/internal/trace"
)

// span is one timed interval at a layer boundary. Spans of one simulation
// (or one sweep job) share a root through Parent; Workload, Rep and Slot say
// where it ran. The ~10^7 per-cycle calls inside one simulation are folded:
// one child span per layer whose Calls and BusyNS carry the totals, with
// Start/End those of the enclosing loop.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Slot     int    `json:"slot"`
	StartNS  int64  `json:"start_ns"` // since the recorder was created
	EndNS    int64  `json:"end_ns"`
	Calls    int64  `json:"calls,omitempty"`
	// BusyNS is the calibrated time inside the folded calls, children
	// included; SelfNS is BusyNS minus the children's BusyNS.
	BusyNS int64 `json:"busy_ns,omitempty"`
	SelfNS int64 `json:"self_ns,omitempty"`
}

// recorder keeps spans in memory until the run ends. Sweep jobs record from
// several goroutines, hence the lock; it is taken per job, never per cycle.
type recorder struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Workload = r.workload
	r.spans = append(r.spans, s)
	return s.ID
}

// interval records a plain [start, end) span.
func (r *recorder) interval(name string, parent, rep, slot int, start, end time.Time) int {
	return r.add(span{Name: name, Parent: parent, Rep: rep, Slot: slot, StartNS: r.since(start), EndNS: r.since(end)})
}

// setEnd closes a span that was recorded before its children so they could
// name it as their parent.
func (r *recorder) setEnd(id int, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].EndNS = r.since(end)
}

// writeSpans appends spans to path as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a JSON-lines span file.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var spans []span
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// timerCost is the calibrated price of timing one call. Pair is what a
// timed call adds to the enclosing interval beyond the call itself (two
// clock reads plus the decorator's bookkeeping); Gap is the part of it that
// lands inside the measured interval. Both are subtracted per timed call
// before any per-layer time is reported.
type timerCost struct{ Pair, Gap float64 }

// nullGen is the cheapest possible generator: what remains when a decorated
// call to it is timed is the timer's own cost.
type nullGen struct{}

func (nullGen) Name() string     { return "null" }
func (nullGen) Next() trace.Inst { return trace.Inst{} }

// calibrator measures timerCost through the same decorator the traced loop
// uses, in short batches taken while the loop runs: the clock's cost on
// this box drifts by a quarter between processes and over seconds, so a
// one-off calibration would mis-attribute more than most layers cost. The
// estimate is the median over batches, which a preempted batch cannot move.
type calibrator struct {
	gen       timedGen
	pair, gap []float64
}

func newCalibrator() *calibrator {
	return &calibrator{gen: timedGen{inner: nullGen{}, r: &replica{}}}
}

// batch times a run of decorated null calls and returns how long it took.
func (c *calibrator) batch() time.Duration {
	const calls = 64
	scratch := c.gen.r
	scratch.next = callClock{}
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		c.gen.Next()
	}
	wall := time.Since(t0)
	c.pair = append(c.pair, float64(wall)/calls)
	c.gap = append(c.gap, float64(scratch.next.ns)/calls)
	return wall
}

func (c *calibrator) cost() timerCost {
	return timerCost{Pair: median(c.pair), Gap: median(c.gap)}
}
