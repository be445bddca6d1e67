package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/trace"
)

// Server is the worker side of the protocol: cmd/boworkerd mounts its
// Handler and the coordinator's Pool talks to it. It executes jobs with
// the same engine the coordinator would use locally (internal/engine
// links prefetch/all), bounded to Capacity concurrent simulations; excess
// requests queue rather than fail, so a coordinator rebalancing a dead
// worker's jobs onto this one degrades throughput, not correctness.
type Server struct {
	// Capacity bounds concurrent simulations; <= 0 means
	// runtime.GOMAXPROCS(0). Advertised via /v1/info.
	Capacity int
	// TraceDirs is where trace replays are resolved: jobs name traces by
	// content SHA-256 and the server indexes these directories to find a
	// matching file.
	TraceDirs []string
	// CheckpointDirs are additional directories indexed the same way for
	// warmup snapshots (jobs name them by CheckpointSHA). Snapshots
	// dropped into TraceDirs are found too — the index is shared — so a
	// worker with one mounted artifact directory needs no extra flag.
	CheckpointDirs []string
	// Log, when non-nil, receives one line per job.
	Log io.Writer

	semOnce sync.Once
	sem     chan struct{}
	logMu   sync.Mutex
	// draining is flipped by StartDraining: /healthz and /v1/run answer
	// 503 so the coordinator routes around this worker while in-flight
	// jobs finish (cmd/boworkerd's graceful SIGTERM path).
	draining atomic.Bool
	// inflight counts /v1/run requests accepted but not yet answered
	// (queued on the capacity semaphore included); the drain loop waits
	// for it to reach zero.
	inflight atomic.Int64

	traceMu       sync.Mutex
	traceIndex    map[string]string // content sha -> path
	lastTraceScan time.Time
}

func (s *Server) capacity() int {
	if s.Capacity > 0 {
		return s.Capacity
	}
	return runtime.GOMAXPROCS(0)
}

func (s *Server) acquire() func() {
	s.semOnce.Do(func() { s.sem = make(chan struct{}, s.capacity()) })
	s.sem <- struct{}{}
	return func() { <-s.sem }
}

// StartDraining puts the server into drain mode: /healthz and /v1/run
// answer 503 (code "draining") from now on, while jobs already executing
// run to completion. cmd/boworkerd flips this on SIGTERM before waiting
// for the HTTP server to drain, so a restart never loses work — the
// coordinator requeues refused jobs elsewhere.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Draining reports whether StartDraining has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight reports how many accepted jobs have not finished yet. After
// StartDraining no new jobs are accepted, so a zero here means the worker
// is safe to exit without losing work.
func (s *Server) InFlight() int { return int(s.inflight.Load()) }

// Handler returns the worker's HTTP API:
//
//	GET  /healthz   liveness probe: "ok", or 503 while draining
//	GET  /v1/info   capacity + protocol/schema advertisement (Info)
//	POST /v1/run    execute one Job, respond with experiments.CacheEntry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, Info{
			Protocol: ProtocolVersion,
			Schema:   experiments.SchemaVersion(),
			Capacity: s.capacity(),
		})
	})
	mux.HandleFunc("/v1/run", s.handleRun)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, CodeMalformed, "POST only")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, CodeDraining, "worker is draining for shutdown")
		return
	}
	// Count the job as in-flight from acceptance (the draining check
	// above) to response: the drain loop must wait for jobs queued on the
	// capacity semaphore too, not just the ones already executing.
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	body := http.MaxBytesReader(w, r.Body, MaxJobBytes)
	b, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, CodeMalformed,
				fmt.Sprintf("job payload exceeds %d bytes", MaxJobBytes))
			return
		}
		writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
		return
	}
	// Check protocol/schema agreement from a lenient pre-decode before the
	// strict one: protocol bumps may remove Options fields (v3 dropped
	// Workload/TracePath), and DisallowUnknownFields would turn every
	// old-coordinator job into a generic 400 instead of the purpose-built
	// version-skew diagnostic.
	var versions struct {
		Protocol int `json:"protocol"`
		Schema   int `json:"schema"`
	}
	if err := json.Unmarshal(b, &versions); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, fmt.Sprintf("decoding job: %v", err))
		return
	}
	if versions.Protocol != ProtocolVersion || versions.Schema != experiments.SchemaVersion() {
		writeError(w, http.StatusConflict, CodeSchemaMismatch,
			fmt.Sprintf("worker speaks protocol %d / schema %d, job is protocol %d / schema %d",
				ProtocolVersion, experiments.SchemaVersion(), versions.Protocol, versions.Schema))
		return
	}
	var job Job
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&job); err != nil {
		writeError(w, http.StatusBadRequest, CodeMalformed, fmt.Sprintf("decoding job: %v", err))
		return
	}
	// Resolve wire-form file specs against the local trace index. The
	// workload slice is deep-copied first: the 200 response echoes
	// job.Options verbatim (wire form, no worker-local paths), so the
	// resolution must not write through the shared slice.
	o := job.Options
	o.Workloads = append([]trace.Spec(nil), job.Options.Workloads...)
	for i, ws := range o.Workloads {
		if ws.Name != "file" {
			continue
		}
		if _, hasPath := ws.Get("path"); hasPath {
			// A coordinator-local path must never be trusted on the worker.
			writeError(w, http.StatusBadRequest, CodeMalformed,
				"file workload spec carries a path parameter; the wire form is sha-only")
			return
		}
		sha, ok := ws.Get("sha")
		if !ok {
			writeError(w, http.StatusBadRequest, CodeMalformed, "file workload spec has neither path nor sha")
			return
		}
		path, found := s.lookupTrace(sha)
		if !found {
			s.logf("refused %.12s: no such trace\n", sha)
			writeError(w, http.StatusPreconditionFailed, CodeTraceUnavailable,
				fmt.Sprintf("no trace with content sha256 %s in %v", sha, s.TraceDirs))
			return
		}
		o.Workloads[i] = trace.FileSpec(path)
	}
	// Recompute the cache key from the payload: OptionsHash keys trace
	// replays by content (so the worker-local path hashes identically) and
	// normalizes specs, so a mismatch means the two binaries would cache
	// this run under different identities — refusing is what keeps a
	// mixed-version fleet from poisoning the shared cache.
	if job.Key != "" {
		if got := experiments.OptionsHash(o); got != job.Key {
			writeError(w, http.StatusConflict, CodeKeyMismatch,
				fmt.Sprintf("job key %s, worker computes %s (version skew?)", job.Key, got))
			return
		}
	}
	var ckptPath string
	if job.CheckpointSHA != "" {
		// Advisory: a missing or unusable snapshot means this worker runs
		// the warmup itself, byte-identically.
		ckptPath, _ = s.lookupTrace(job.CheckpointSHA)
	}
	release := s.acquire()
	defer release()
	// One label for all of this request's log lines: WorkloadsLabel
	// re-normalizes (building validation generators) on every call.
	label := o.WorkloadsLabel()
	s.logf("run %s key=%.12s\n", label, job.Key)
	// Drive the engine under the request context: when the coordinator
	// goes away (killed sweep, retry-after-truncated-response), the
	// orphaned job aborts instead of burning a capacity slot on a result
	// nobody will read.
	res, err := runJob(r.Context(), o, ckptPath)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			s.logf("abandoned %s (coordinator gone)\n", label)
			return // the connection is dead; nothing to respond to
		}
		s.logf("fail %s: %v\n", label, err)
		writeError(w, http.StatusUnprocessableEntity, CodeSimFailed, err.Error())
		return
	}
	s.logf("done %s IPC=%.3f\n", label, res.IPC)
	writeJSON(w, http.StatusOK, experiments.CacheEntry{
		Version: experiments.SchemaVersion(),
		Options: job.Options.Normalized(), // coordinator-side spelling: file specs stay in wire (sha) form
		Result:  res,
	})
}

// runJob executes one simulation, honouring ctx cancellation via the
// steppable engine. With a resolvable warmup checkpoint it forks the
// measured region from the snapshot; any failure on that path falls back
// to the full run, which the engine's determinism guarantee makes
// byte-identical.
func runJob(ctx context.Context, o engine.Options, ckptPath string) (engine.Result, error) {
	if ckptPath != "" {
		if data, err := os.ReadFile(ckptPath); err == nil {
			if eng, err := engine.Restore(data, o); err == nil {
				return eng.Run(ctx)
			}
		}
	}
	eng, err := engine.New(o)
	if err != nil {
		return engine.Result{}, err
	}
	return eng.Run(ctx)
}

// traceRescanInterval bounds how often a lookup miss may rebuild the
// trace index: a burst of probes for traces this worker lacks answers
// from the existing index instead of serializing full directory scans,
// while traces dropped in after startup are still found within seconds.
const traceRescanInterval = 5 * time.Second

// lookupTrace resolves a trace content hash to a local file path. Hits
// re-validate the file's current content (a trace edited in place stops
// matching and falls through to a rescan); misses rebuild the index from
// TraceDirs — at most once per traceRescanInterval — so traces dropped
// in after startup are found and stale mappings vanish. Hashing goes
// through trace.ContentSHA — the exact function the cache
// keys by, memoized by size+mtime — so rescans re-read only changed
// files and the worker can never disagree with the coordinator about a
// trace's identity.
func (s *Server) lookupTrace(sha string) (string, bool) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	if p, ok := s.traceIndex[sha]; ok {
		if trace.ContentSHA(p) == sha {
			return p, true
		}
		// Edited in place: drop the stale mapping so the throttled branch
		// below reports a miss (412, retry elsewhere) rather than handing
		// back a file that no longer matches the requested content.
		delete(s.traceIndex, sha)
	}
	if s.traceIndex != nil && time.Since(s.lastTraceScan) < traceRescanInterval {
		p, ok := s.traceIndex[sha]
		return p, ok
	}
	s.rescanTracesLocked()
	p, ok := s.traceIndex[sha]
	return p, ok
}

// WarmTraceIndex hashes the trace corpus up front and returns how many
// traces were indexed, so a daemon with a large -trace-dir pays for the
// initial scan at startup instead of inside the first trace job's
// request (which would stall every concurrent trace lookup on traceMu).
func (s *Server) WarmTraceIndex() int {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.rescanTracesLocked()
	return len(s.traceIndex)
}

// rescanTracesLocked rebuilds the content-hash index from TraceDirs.
// Callers hold traceMu.
func (s *Server) rescanTracesLocked() {
	s.lastTraceScan = time.Now()
	s.traceIndex = make(map[string]string)
	for _, dir := range append(append([]string(nil), s.TraceDirs...), s.CheckpointDirs...) {
		files, err := filepath.Glob(filepath.Join(dir, "*"))
		if err != nil {
			continue
		}
		for _, f := range files {
			st, err := os.Stat(f)
			if err != nil || st.IsDir() {
				continue
			}
			if h := trace.ContentSHA(f); h != "" {
				s.traceIndex[h] = f
			}
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.Log == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.Log, "boworkerd: "+format, args...)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, ErrorBody{Code: code, Error: msg})
}
