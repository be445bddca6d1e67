package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
)

// TestMain lets the test binary act as the measuring child, exactly as the
// bopbench binary does: the smoke test then exercises the real parent/child
// protocol.
func TestMain(m *testing.M) {
	if path := os.Getenv(childEnv); path != "" {
		os.Exit(childMain(path))
	}
	os.Exit(m.Run())
}

// declared mirrors the root BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the tables in
// metrics.go and workloads.go identical, and inside the contract's limits.
func TestBenchmarkJSONMatches(t *testing.T) {
	d := loadDeclared(t)
	if d.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, code measures %d", d.RunSeconds, runSeconds)
	}
	if n := len(d.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads declared, %d in code (want 2..8)", n, len(workloads))
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d in code (want 1..16)", n, len(endToEnd))
	}
	if n := len(d.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d in code (want 1..128)", n, len(perLayer))
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range d.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: declared %q / %q, code %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	setup := false
	for i, m := range d.EndToEnd {
		checkName(m.Name)
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end-to-end %d: declared %+v, code %+v", i, m, c)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit %q or bound %v", m.Name, m.Unit, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, m := range d.PerLayer {
		checkName(m.Name)
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer %d: declared %+v, code %+v", i, m, c)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("per-layer %s: bad unit %q", m.Name, m.Unit)
		}
	}
	registered := map[string]bool{}
	for _, n := range prefetch.L2Names() {
		registered[n] = true
	}
	for _, n := range pricedPrefetchers {
		if !registered[n] {
			t.Errorf("priced prefetcher %q is not registered", n)
		}
	}
}

// TestSmoke runs every workload at 1/100 size through both passes and
// checks that everything BENCHMARK.json declares is emitted, with its unit,
// and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	d := loadDeclared(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	spans := filepath.Join(dir, "spans.jsonl")
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-work", dir, "-out", out, "-spans", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("bopbench -smoke exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	res, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Claim != nil {
		t.Errorf("claim = %q, want null", *res.Claim)
	}
	byName := map[string]workloadResult{}
	for _, w := range res.Workloads {
		byName[w.Name] = w
	}
	emitted := map[string]string{} // per-layer metric -> unit, over all workloads
	for _, dw := range d.Workloads {
		w, ok := byName[dw.Name]
		if !ok {
			t.Errorf("workload %s not run", dw.Name)
			continue
		}
		if w.Failed != 0 || w.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", dw.Name, w.Failed, w.Attempted, w.Failures)
		}
		if len(w.SimDigest) != 64 {
			t.Errorf("%s: sim_digest %q", dw.Name, w.SimDigest)
		}
		for _, m := range d.EndToEnd {
			v, ok := w.EndToEnd[m.Name]
			if !ok || v.Unit != m.Unit || v.Median <= 0 {
				t.Errorf("%s: end-to-end %s = %+v, want a positive value in %s", dw.Name, m.Name, v, m.Unit)
			}
		}
		for name, v := range w.PerLayer {
			emitted[name] = v.Unit
		}
		// At smoke size the loop is a few thousand cycles, so its own
		// bookkeeping is a visible share; full-size runs account for 97-101%.
		if w.solo() && (w.AccountedShare < 0.5 || w.AccountedShare > 1.25) {
			t.Errorf("%s: layers account for %.0f%% of the traced loop", dw.Name, 100*w.AccountedShare)
		}
	}
	for _, m := range d.PerLayer {
		if unit, ok := emitted[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %s: emitted unit %q (present %v), declared %q", m.Name, unit, ok, m.Unit)
		}
	}
	recorded, err := readSpans(spans)
	if err != nil || len(recorded) == 0 {
		t.Errorf("spans: %d read, err %v", len(recorded), err)
	}
}

// TestResultLine checks the single-workload mode the benchmark driver uses:
// the last line of standard output is one JSON object with exactly the four
// contract keys, carrying every declared metric of the requested pass.
func TestResultLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	for _, tc := range []struct {
		trace string
		want  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-smoke", "-work", t.TempDir(), "--workload", "solo-membound", "--seed", "7", "--seconds", "10", "--trace", tc.trace}
		if code := realMain(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("trace %s: result line has keys %v", tc.trace, line)
		}
		var parsed resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
			t.Fatal(err)
		}
		if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 {
			t.Errorf("trace %s: %+v", tc.trace, parsed)
		}
		if len(parsed.Metrics) != len(tc.want) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(parsed.Metrics), len(tc.want))
		}
		for _, m := range tc.want {
			if v, ok := parsed.Metrics[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("trace %s: metric %s = %+v", tc.trace, m.Name, v)
			}
		}
	}
}

func (w workloadResult) solo() bool {
	def, err := findWorkload(w.Name)
	return err == nil && def.solo()
}

// TestReplicaMatchesEngine is the replica-drift guard: for several
// prefetchers on 1 and 4 cores the decorated replica loop must end exactly
// where engine.Run does. A change to engine.build or Simulation.Step that
// replica.go does not follow fails here.
func TestReplicaMatchesEngine(t *testing.T) {
	for _, l2 := range []string{"nextline", "bo", "sbp", "multi"} {
		for _, cores := range []int{1, 4} {
			w := workload{Bench: "429.mcf", Cores: cores, L2: l2, Instr: 40_000}
			o, err := w.soloOptions(3)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, _, err := simulate(o)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := newReplica(o, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := rp.run(); err != nil {
				t.Fatal(err)
			}
			if got := rp.stats(); !got.equal(statsOf(ref)) {
				t.Errorf("%s on %d cores: replica %+v\nengine %+v", l2, cores, got, statsOf(ref))
			}
			if rp.ticked+rp.skipped != ref.Cycles || rp.vetoCPU+rp.vetoUncore != rp.ticked {
				t.Errorf("%s on %d cores: %d ticked + %d skipped cycles, %d + %d vetoes, engine ran %d cycles",
					l2, cores, rp.ticked, rp.skipped, rp.vetoCPU, rp.vetoUncore, ref.Cycles)
			}
		}
	}
}

// TestReplicaRefusesWarmup pins the replica's one precondition.
func TestReplicaRefusesWarmup(t *testing.T) {
	o := engine.DefaultOptions("429.mcf")
	o.Warmup = 1000
	if _, err := newReplica(o, 0); err == nil {
		t.Error("replica accepted a warmup run")
	}
}

func TestCompare(t *testing.T) {
	mk := func(instr []float64, digest string, misses float64) results {
		r := results{Schema: 1, Seed: 1, Scale: 1, Seconds: 10, Bounds: map[string]metricDef{}}
		for _, m := range endToEnd {
			r.Bounds[m.Name] = m
		}
		w := workloadResult{Name: "solo-compute", SimDigest: digest, EndToEnd: map[string]e2eValue{},
			PerLayer: map[string]value{"uncore.l2_misses": {Value: misses, Unit: "count"}}}
		for _, m := range endToEnd {
			w.EndToEnd[m.Name] = e2eValue{Unit: m.Unit, summary: summarize(instr)}
		}
		r.Workloads = []workloadResult{w}
		return r
	}
	write := func(r results) string {
		path := filepath.Join(t.TempDir(), "r.json")
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{100, 101, 102, 100, 101}
	base := write(mk(steady, "d", 5))
	for _, tc := range []struct {
		name   string
		change results
		code   int
		want   string
	}{
		{"same", mk(steady, "d", 5), 0, " ok"},
		// 30% lower: a regression on the rates, an improvement on the
		// lower-is-better metrics.
		{"slower", mk([]float64{70, 71, 70, 72, 71}, "d", 5), 1, "regressed"},
		{"noisy", mk([]float64{60, 140, 100, 75, 125}, "d", 5), 0, "unresolved"},
		// Noisy, but every sample beats every sample of the base on the rates.
		{"noisy-better", mk([]float64{150, 300, 200, 160, 250}, "d", 5), 0, "1/s ratio 1.980 bound 20% ok"},
		{"digest", mk(steady, "other", 5), 1, "sim_digest MISMATCH"},
		{"count", mk(steady, "d", 6), 1, "uncore.l2_misses MISMATCH"},
	} {
		var stdout, stderr bytes.Buffer
		code := compareFiles(base, write(tc.change), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s%s", tc.name, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
