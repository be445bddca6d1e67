package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// childrenPerRun is how many measuring processes one untraced run starts,
// one after another. Each is set up from scratch and measures a third of
// the run, so setup_s and peak_rss_mb are medians over three processes and
// the timings pool the reps of all three.
const childrenPerRun = 3

// config is one invocation's settings.
type config struct {
	Seed    uint64
	Seconds float64 // measured seconds of one untraced run
	// Scale divides instruction counts and kernel sizes (1, or 100 under
	// -smoke).
	Scale int
	// Children is how many measuring processes an untraced run starts
	// (childrenPerRun, or 1 under -smoke) and MinReps how many timed reps
	// each makes at least.
	Children int
	MinReps  int
	// WorkRoot is where children get their scratch directories.
	WorkRoot string
}

// inputsFor fills the invocation-wide part of a child's inputs.
func (cfg config) inputsFor(w workload, seconds float64, traced bool, dir string) inputs {
	return inputs{Workload: w.scaled(uint64(cfg.Scale)), Seed: cfg.Seed, Seconds: seconds, Traced: traced,
		Dir: dir, KernelScale: cfg.Scale, MinReps: cfg.MinReps}
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eValue is an end-to-end metric with its samples' spread.
type e2eValue struct {
	Unit string `json:"unit"`
	summary
}

// workloadResult is everything one workload reported, both passes.
type workloadResult struct {
	Name      string              `json:"name"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Failures  []string            `json:"failures,omitempty"`
	SimDigest string              `json:"sim_digest"`
	EndToEnd  map[string]e2eValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]value    `json:"per_layer,omitempty"`
	// HostSlowdown is the median slowdown the timed reps were normalised by
	// (1 for sweeps): value / HostSlowdown is the raw reading.
	HostSlowdown float64 `json:"host_slowdown,omitempty"`
	// AccountedShare is how much of the traced loop's calibrated wall the
	// per-layer self times explain (single simulations only).
	AccountedShare float64 `json:"accounted_share,omitempty"`
	spans          []span
}

func (r *workloadResult) absorb(c childResult) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Failures = append(r.Failures, c.Failures...)
	switch {
	case r.SimDigest == "":
		r.SimDigest = c.Digest
	case c.Digest != r.SimDigest:
		r.Failed++
		r.Failures = append(r.Failures, "sim_digest differs between processes of one run")
	}
}

// runUntraced is pass 1: tracing off, end-to-end metrics.
func runUntraced(w workload, cfg config) (workloadResult, error) {
	res := workloadResult{Name: w.Name, EndToEnd: map[string]e2eValue{}}
	var instrRate, simRate, rss, setup, slowdown []float64
	for k := 0; k < cfg.Children; k++ {
		dir := filepath.Join(cfg.WorkRoot, w.Name+"-"+strconv.Itoa(k))
		c, setupS, err := runChild(cfg.inputsFor(w, cfg.Seconds/float64(cfg.Children), false, dir))
		os.RemoveAll(dir)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.absorb(c)
		for _, rp := range c.Reps {
			instrRate = append(instrRate, float64(rp.Instr)/rp.seconds())
			simRate = append(simRate, float64(rp.Sims)/rp.seconds())
			slowdown = append(slowdown, rp.Slowdown)
		}
		rss = append(rss, c.PeakRSSMB)
		setup = append(setup, setupS)
	}
	if len(instrRate) == 0 {
		return res, fmt.Errorf("%s: no rep completed: %v", w.Name, res.Failures)
	}
	res.HostSlowdown = median(slowdown)
	for _, m := range endToEnd {
		samples := map[string][]float64{
			"sim_instr_per_s": instrRate, "sims_per_s": simRate, "peak_rss_mb": rss, "setup_s": setup,
		}[m.Name]
		res.EndToEnd[m.Name] = e2eValue{Unit: m.Unit, summary: summarize(samples)}
	}
	return res, nil
}

// runTraced is pass 2: one traced rep in one child, per-layer metrics.
func runTraced(w workload, cfg config) (workloadResult, error) {
	res := workloadResult{Name: w.Name, PerLayer: map[string]value{}}
	dir := filepath.Join(cfg.WorkRoot, w.Name+"-traced")
	defer os.RemoveAll(dir)
	c, _, err := runChild(cfg.inputsFor(w, cfg.Seconds, true, dir))
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.absorb(c)
	res.AccountedShare = c.AccountedShare
	for _, m := range perLayer {
		if v, ok := c.Layer[m.Name]; ok {
			res.PerLayer[m.Name] = value{Value: v, Unit: m.Unit}
		}
	}
	res.spans, err = readSpans(filepath.Join(dir, "spans.jsonl"))
	return res, err
}
