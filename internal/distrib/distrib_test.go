package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/mem"
	"bopsim/internal/trace"
)

// tinyRunner mirrors the experiments package's test helper: two
// benchmarks, one config, short runs.
func tinyRunner() *experiments.Runner {
	r := experiments.NewRunner(40_000, []experiments.CoreConfig{{Cores: 1, Page: mem.Page4K}})
	r.Benchmarks = []trace.Spec{{Name: "416.gamess"}, {Name: "456.hmmer"}}
	return r
}

// countingHandler wraps a worker handler and counts executed /v1/run
// requests, so tests can prove where simulations actually ran.
type countingHandler struct {
	runs atomic.Int64
	h    http.Handler
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/run" {
		c.runs.Add(1)
	}
	c.h.ServeHTTP(w, r)
}

// startWorker runs one in-process worker daemon for tests.
func startWorker(t *testing.T, capacity int, traceDirs ...string) (*httptest.Server, *countingHandler) {
	t.Helper()
	ch := &countingHandler{h: (&Server{Capacity: capacity, TraceDirs: traceDirs}).Handler()}
	srv := httptest.NewServer(ch)
	t.Cleanup(srv.Close)
	return srv, ch
}

// TestRemoteMatchesLocal is the tentpole guarantee: a sweep fanned out
// over two workers renders byte-identical tables to a local run, every
// simulation actually executes remotely, and the results land in the
// coordinator's disk cache in the normal entry format.
func TestRemoteMatchesLocal(t *testing.T) {
	local := tinyRunner()
	wantFig2, wantFig6 := local.Fig2().String(), local.Fig6().String()

	w1, c1 := startWorker(t, 2)
	w2, c2 := startWorker(t, 2)
	pool, err := Dial([]string{w1.URL, w2.URL}, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if pool.Slots() != 4 {
		t.Fatalf("pool has %d slots, want 4 (2 workers x capacity 2)", pool.Slots())
	}
	// Slots interleave across workers, so a 2-job set uses both.
	l0, l1 := pool.SlotLabel(0), pool.SlotLabel(1)
	if strings.Split(l0, "#")[0] == strings.Split(l1, "#")[0] {
		t.Errorf("slots 0 and 1 home on the same worker (%s, %s), want interleaved", l0, l1)
	}

	cacheDir := t.TempDir()
	remote := tinyRunner()
	remote.Backend = pool
	remote.CacheDir = cacheDir
	gotFig2, gotFig6 := remote.Fig2().String(), remote.Fig6().String()
	if gotFig2 != wantFig2 {
		t.Errorf("remote Fig2 differs from local:\n%s\n---\n%s", gotFig2, wantFig2)
	}
	if gotFig6 != wantFig6 {
		t.Errorf("remote Fig6 differs from local:\n%s\n---\n%s", gotFig6, wantFig6)
	}

	runs := c1.runs.Load() + c2.runs.Load()
	if runs != int64(remote.Executed()) || runs == 0 {
		t.Errorf("workers saw %d runs, coordinator executed %d", runs, remote.Executed())
	}
	// Remote results persisted through the coordinator's disk cache.
	files, err := filepath.Glob(filepath.Join(cacheDir, "*.json"))
	if err != nil || len(files) != int(remote.Executed()) {
		t.Errorf("%d disk-cache entries for %d remote executions (err %v)", len(files), remote.Executed(), err)
	}
	// And that cache verifies clean against local re-execution — the
	// trust anchor for remotely computed results.
	rep, err := experiments.VerifyCache(cacheDir, 0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatched != 0 || rep.Checked == 0 {
		t.Errorf("remote-filled cache failed verification: %+v", rep)
	}
}

// killableHandler serves a worker until kill is set, then hard-closes
// every /v1/run connection — what a killed daemon looks like to the
// coordinator.
type killableHandler struct {
	kill atomic.Bool
	runs atomic.Int64
	h    http.Handler
}

func (k *killableHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/run" {
		if k.kill.Load() {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		k.runs.Add(1)
	}
	k.h.ServeHTTP(w, r)
}

// TestWorkerKillMidSweepRetries kills one of two workers after its first
// completed job: the sweep must still finish, via bounded retry onto the
// survivor, with output identical to a local run.
func TestWorkerKillMidSweepRetries(t *testing.T) {
	local := tinyRunner()
	want := local.Fig6().String()

	healthy, _ := startWorker(t, 1)
	flaky := &killableHandler{h: (&Server{Capacity: 1}).Handler()}
	flakySrv := httptest.NewServer(flaky)
	t.Cleanup(flakySrv.Close)

	pool, err := Dial([]string{healthy.URL, flakySrv.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	remote := tinyRunner()
	remote.Backend = pool
	// Kill the flaky worker as soon as it has completed one job, so the
	// death lands mid-sweep whichever way the 4 jobs interleave. If the
	// healthy worker happens to take every job first, the kill simply
	// never fires — also a pass, so flip the switch up front for
	// determinism of the interesting case.
	flaky.kill.Store(true)

	got := remote.Fig6().String()
	if got != want {
		t.Errorf("table after worker loss differs from local:\n%s\n---\n%s", got, want)
	}
	if _, alive := pool.Workers(); alive != 1 {
		t.Errorf("%d workers alive after kill, want 1", alive)
	}
}

// TestAllWorkersLost checks the failure mode when the whole fleet dies:
// RunJobs reports errors for the affected jobs instead of hanging or
// panicking the process.
func TestAllWorkersLost(t *testing.T) {
	flaky := &killableHandler{h: (&Server{Capacity: 2}).Handler()}
	srv := httptest.NewServer(flaky)
	t.Cleanup(srv.Close)
	pool, err := Dial([]string{srv.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	flaky.kill.Store(true)

	r := tinyRunner()
	r.Backend = pool
	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 40_000
	runErr := r.RunJobs([]engine.Options{o})
	if runErr == nil {
		t.Fatal("RunJobs succeeded with every worker dead")
	}
	if !strings.Contains(runErr.Error(), "worker") {
		t.Errorf("error does not mention worker loss: %v", runErr)
	}
}

// TestDrainingWorker covers the graceful-shutdown protocol: a draining
// worker 503s /healthz and /v1/run, the job requeues on the survivor, and
// the drained worker reports nothing in flight.
func TestDrainingWorker(t *testing.T) {
	drainingSrv := &Server{Capacity: 1}
	draining := httptest.NewServer(drainingSrv.Handler())
	t.Cleanup(draining.Close)
	healthy, healthyCount := startWorker(t, 1)

	pool, err := Dial([]string{draining.URL, healthy.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	drainingSrv.StartDraining()
	if !drainingSrv.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	resp, err := http.Get(draining.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz answered %d, want 503", resp.StatusCode)
	}

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 20_000
	want, err := engine.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pool.Run(0, o) // slot 0 homes on the draining worker
	if err != nil {
		t.Fatalf("run against draining worker: %v", err)
	}
	wb, _ := json.Marshal(want)
	rb, _ := json.Marshal(res)
	if !bytes.Equal(wb, rb) {
		t.Errorf("result beside a draining worker diverged from local\nlocal:  %s\nremote: %s", wb, rb)
	}
	if healthyCount.runs.Load() != 1 {
		t.Errorf("healthy worker ran %d jobs, want 1", healthyCount.runs.Load())
	}
	if _, alive := pool.Workers(); alive != 1 {
		t.Errorf("%d workers alive, want 1 (the draining worker is written off)", alive)
	}
	if n := drainingSrv.InFlight(); n != 0 {
		t.Errorf("InFlight()=%d with nothing running", n)
	}
}

// TestServerRejectsBadPayloads covers the worker's input validation:
// malformed JSON, oversized bodies, schema skew and key mismatches are
// all refused with the right status and error code.
func TestServerRejectsBadPayloads(t *testing.T) {
	srv, _ := startWorker(t, 1)

	post := func(body []byte) (int, ErrorBody) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	if code, eb := post([]byte("{not json")); code != http.StatusBadRequest || eb.Code != CodeMalformed {
		t.Errorf("malformed body: %d/%s, want 400/%s", code, eb.Code, CodeMalformed)
	}

	big := bytes.Repeat([]byte("x"), MaxJobBytes+1)
	if code, eb := post(big); code != http.StatusRequestEntityTooLarge || eb.Code != CodeMalformed {
		t.Errorf("oversized body: %d/%s, want 413/%s", code, eb.Code, CodeMalformed)
	}

	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 1000
	good, err := makeJob(o)
	if err != nil {
		t.Fatal(err)
	}

	skewed := good
	skewed.Schema = good.Schema + 1
	b, _ := json.Marshal(skewed)
	if code, eb := post(b); code != http.StatusConflict || eb.Code != CodeSchemaMismatch {
		t.Errorf("schema skew: %d/%s, want 409/%s", code, eb.Code, CodeSchemaMismatch)
	}

	wrongKey := good
	wrongKey.Key = strings.Repeat("ab", 32)
	b, _ = json.Marshal(wrongKey)
	if code, eb := post(b); code != http.StatusConflict || eb.Code != CodeKeyMismatch {
		t.Errorf("key mismatch: %d/%s, want 409/%s", code, eb.Code, CodeKeyMismatch)
	}

	// An unknown field from a same-version coordinator means the two
	// binaries disagree about the Job schema itself: refused, not
	// silently dropped.
	b, _ = json.Marshal(map[string]any{
		"protocol": ProtocolVersion, "schema": experiments.SchemaVersion(), "surprise": true})
	if code, eb := post(b); code != http.StatusBadRequest || eb.Code != CodeMalformed {
		t.Errorf("unknown field: %d/%s, want 400/%s", code, eb.Code, CodeMalformed)
	}

	// A protocol-v2 era payload — old version numbers AND since-removed
	// Options fields — gets the purpose-built version-skew diagnostic, not
	// a generic unknown-field 400: the version check reads a lenient
	// pre-decode precisely so field removals can't mask it.
	b, _ = json.Marshal(map[string]any{
		"protocol": 2, "schema": 2, "key": "abc",
		"options": map[string]any{"Workload": "456.hmmer", "TracePath": "", "Cores": 1},
	})
	if code, eb := post(b); code != http.StatusConflict || eb.Code != CodeSchemaMismatch {
		t.Errorf("v2-era payload: %d/%s, want 409/%s", code, eb.Code, CodeSchemaMismatch)
	}

	// A bad simulation (unknown benchmark) is a deterministic job error.
	bad, err := makeJob(engine.Options{Workloads: []trace.Spec{{Name: "no-such-benchmark"}}, Cores: 1, Page: mem.Page4K, Instructions: 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, _ = json.Marshal(bad)
	if code, eb := post(b); code != http.StatusUnprocessableEntity || eb.Code != CodeSimFailed {
		t.Errorf("sim failure: %d/%s, want 422/%s", code, eb.Code, CodeSimFailed)
	}
}

// TestHeterogeneousWorkloadsRemoteMatchesLocal checks per-core workload
// specs travel the wire intact: a two-core run with different generators
// on each core returns byte-identical results remotely and locally, and
// the worker's key recomputation accepts the spec-based payload.
func TestHeterogeneousWorkloadsRemoteMatchesLocal(t *testing.T) {
	o := engine.DefaultOptions("")
	o.Workloads = []trace.Spec{
		trace.MustSpec("gups:footprint=4mb"),
		trace.MustSpec("stream:stride=128"),
	}
	o.Cores = 2
	o.Instructions = 20_000

	local, err := engine.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	w, counter := startWorker(t, 1)
	pool, err := Dial([]string{w.URL}, RetryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := pool.Run(0, o)
	if err != nil {
		t.Fatal(err)
	}
	lb, _ := json.Marshal(local)
	rb, _ := json.Marshal(remote)
	if !bytes.Equal(lb, rb) {
		t.Errorf("remote heterogeneous run diverged\nlocal:  %s\nremote: %s", lb, rb)
	}
	if counter.runs.Load() != 1 {
		t.Errorf("worker executed %d jobs, want 1", counter.runs.Load())
	}
}

// TestWorkerRejectsPathFileSpec checks the wire hygiene rule: a job whose
// file workload spec still carries a coordinator-local path (instead of
// the sha-only wire form) is refused as malformed, never opened.
func TestWorkerRejectsPathFileSpec(t *testing.T) {
	w, _ := startWorker(t, 1)
	o := engine.DefaultOptions("").Normalized()
	o.Workloads = []trace.Spec{trace.FileSpec("/etc/hostname")}
	o.Cores = 1
	job := Job{Protocol: ProtocolVersion, Schema: experiments.SchemaVersion(), Options: o}
	b, _ := json.Marshal(job)
	resp, err := http.Post(w.URL+"/v1/run", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	if resp.StatusCode != http.StatusBadRequest || eb.Code != CodeMalformed {
		t.Errorf("path-bearing file spec: %d/%s, want 400/%s", resp.StatusCode, eb.Code, CodeMalformed)
	}
}

// TestTraceJobsResolveByContentHash checks the trace path end to end: the
// coordinator ships a content hash, a worker holding a byte-identical
// copy (under any filename) executes the job, and a worker without it
// refuses with the retry-elsewhere status so the pool routes around it.
func TestTraceJobsResolveByContentHash(t *testing.T) {
	srcDir := t.TempDir()
	tracePath := filepath.Join(srcDir, "workload.trace")
	gen, err := trace.NewWorkload("456.hmmer", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteTraceFile(tracePath, gen, 3000); err != nil {
		t.Fatal(err)
	}

	// The worker's copy lives under a different name in its own dir.
	workerDir := t.TempDir()
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(workerDir, "renamed.bin"), b, 0o644); err != nil {
		t.Fatal(err)
	}

	bare, _ := startWorker(t, 1) // no trace dirs
	holder, _ := startWorker(t, 1, workerDir)
	pool, err := Dial([]string{bare.URL, holder.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	o := engine.DefaultOptions("456.hmmer")
	o.Workloads = []trace.Spec{trace.FileSpec(tracePath)}
	o.Instructions = 2000

	// Slot 0 homes on the bare worker: the job must bounce off it (412)
	// and complete on the holder.
	res, err := pool.Run(0, o)
	if err != nil {
		t.Fatalf("trace job failed: %v", err)
	}
	// Trace probes must not consume the worker-loss retry budget: with
	// more traceless workers than MaxAttempts ahead of the holder, the
	// job still has to find it.
	var fleet []string
	for i := 0; i < 5; i++ {
		bare, _ := startWorker(t, 1)
		fleet = append(fleet, bare.URL)
	}
	fleet = append(fleet, holder.URL)
	wide, err := Dial(fleet, RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wide.Run(0, o); err != nil {
		t.Errorf("trace job failed on a wide fleet where one worker holds the trace: %v", err)
	}
	want, err := engine.Run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	// The whole result must be byte-identical — Workload label included,
	// even though the worker resolved the trace at a *different* local
	// path than the coordinator's: file replays label by content hash, so
	// result bytes never depend on which machine's path served the trace.
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(res)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("remote trace replay result diverged from local\nlocal:  %s\nremote: %s", wantJSON, gotJSON)
	}
	if !strings.HasPrefix(res.Workload, "file:sha=") {
		t.Errorf("trace-replay result labeled %q, want content-hash form", res.Workload)
	}

	// With only the bare worker, the job must fail with a trace error.
	alone, err := Dial([]string{bare.URL}, RetryPolicy{Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alone.Run(0, o); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("job on traceless fleet: %v, want trace_unavailable error", err)
	}
}

// TestLookupTraceDropsStaleMapping checks a trace overwritten in place
// within the rescan-throttle window reads as a miss (412, retry on
// another worker), not as the stale path — which would make the worker's
// key recomputation fail the job permanently with 409.
func TestLookupTraceDropsStaleMapping(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "t.trace")
	if err := os.WriteFile(f, []byte("content-one"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &Server{TraceDirs: []string{dir}}
	sha := trace.ContentSHA(f)
	if p, ok := s.lookupTrace(sha); !ok || p != f {
		t.Fatalf("lookupTrace(%0.12s) = %q, %v; want hit on %s", sha, p, ok, f)
	}
	// Overwrite in place (different length, so the size+mtime hash memo
	// can never serve the stale hash) and probe again inside the window.
	if err := os.WriteFile(f, []byte("content-two-longer"), 0o644); err != nil {
		t.Fatal(err)
	}
	if p, ok := s.lookupTrace(sha); ok {
		t.Errorf("lookupTrace returned stale mapping %q for overwritten trace", p)
	}
}

// TestDialRejectsBadFleet checks Dial fails fast on unreachable and
// misconfigured workers instead of silently shrinking the fleet.
func TestDialRejectsBadFleet(t *testing.T) {
	if _, err := Dial(nil, RetryPolicy{}); err == nil {
		t.Error("Dial with no addresses succeeded")
	}
	if _, err := Dial([]string{"127.0.0.1:1"}, RetryPolicy{}); err == nil {
		t.Error("Dial to a closed port succeeded")
	}
	// A server speaking a different schema is refused at dial time.
	skew := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Info{Protocol: ProtocolVersion, Schema: experiments.SchemaVersion() + 1, Capacity: 1})
	}))
	defer skew.Close()
	if _, err := Dial([]string{skew.URL}, RetryPolicy{}); err == nil {
		t.Error("Dial to a schema-skewed worker succeeded")
	}
}

// TestCheckpointedRemoteSweep checks warmup sharing end to end over the
// wire: the coordinator runs the warmup legs locally, ships each job with
// its snapshot's content hash, and a worker holding the snapshot forks
// from it — rendering byte-identical tables to a serial, uncheckpointed
// sweep. A second fleet *without* the snapshots must also match: a worker
// that cannot resolve a CheckpointSHA runs the warmup itself.
func TestCheckpointedRemoteSweep(t *testing.T) {
	serial := tinyRunner()
	serial.Instructions = 20_000
	serial.Warmup = 15_000
	want := serial.Fig6().String()

	ckptDir := t.TempDir()
	runRemote := func(worker *httptest.Server) string {
		r := tinyRunner()
		r.Instructions = 20_000
		r.Warmup = 15_000
		r.Checkpoint = true
		r.CheckpointDir = ckptDir
		pool, err := Dial([]string{worker.Listener.Addr().String()}, RetryPolicy{Backoff: -1})
		if err != nil {
			t.Fatal(err)
		}
		r.Backend = pool
		return r.Fig6().String()
	}

	// Worker with the snapshot directory mounted: resolves CheckpointSHA.
	withSnaps, c1 := startWorker(t, 2, ckptDir)
	if got := runRemote(withSnaps); got != want {
		t.Errorf("checkpointed remote sweep diverged from serial\nserial:\n%s\nremote:\n%s", want, got)
	}
	if c1.runs.Load() == 0 {
		t.Error("no jobs executed on the snapshot-holding worker")
	}

	// Worker with no access to the snapshots: CheckpointSHA is advisory,
	// so it replays warmups itself and must still match byte for byte.
	bare, c2 := startWorker(t, 2)
	r2 := tinyRunner()
	r2.Instructions = 20_000
	r2.Warmup = 15_000
	r2.Seed = 3 // fresh cache keys so jobs really re-execute
	serial2 := tinyRunner()
	serial2.Instructions = 20_000
	serial2.Warmup = 15_000
	serial2.Seed = 3
	want2 := serial2.Fig6().String()
	r2.Checkpoint = true
	r2.CheckpointDir = t.TempDir() // legs created here; worker can't see it
	pool, err := Dial([]string{bare.Listener.Addr().String()}, RetryPolicy{Backoff: -1})
	if err != nil {
		t.Fatal(err)
	}
	r2.Backend = pool
	if got := r2.Fig6().String(); got != want2 {
		t.Errorf("remote sweep with unresolvable snapshots diverged\nserial:\n%s\nremote:\n%s", want2, got)
	}
	if c2.runs.Load() == 0 {
		t.Error("no jobs executed on the snapshot-less worker")
	}
}
