// Package fleet is the long-lived coordinator service behind
// cmd/bofleetd: a persistent sweep queue (journaled to disk, replayed on
// restart) executed one sweep at a time on a distrib.Pool whose workers
// register themselves and are revived after crashes, behind a small HTTP
// API (POST /v1/sweeps, GET /v1/sweeps/{id}, GET /v1/status,
// POST /v1/workers).
//
// The service leans on the invariants the lower layers already provide.
// Sweeps are rendered through experiments.RenderTarget — the exact
// dispatch cmd/experiments uses — against a Runner wired to the shared
// result cache, so a sweep's output bytes are those of a local serial
// run no matter how many workers executed it, died during it, or were
// revived mid-way. That same determinism is what makes crash recovery
// trivial: a sweep interrupted by a coordinator crash has no completion
// record in the journal, is requeued on restart, and re-runs against the
// warm cache — recomputing only what was genuinely lost.
//
// See DESIGN.md §10 ("Fleet service") for the journal format, the
// registration/probe/seed protocol and the fair-share policy.
package fleet

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"bopsim/internal/distrib"
	"bopsim/internal/experiments"
	"bopsim/internal/trace"
)

// Config wires a Service.
type Config struct {
	// Dir is the service's state directory: the sweep journal
	// (journal.jsonl) lives here, and it anchors the default CacheDir.
	Dir string
	// CacheDir is the persistent result cache every sweep's Runner reads
	// and writes (the same format `experiments -cache` uses, so a cache
	// can be shared with local runs). Empty means "<Dir>/cache".
	CacheDir string
	// ArtifactDirs hold the coordinator's trace/checkpoint files, resolved
	// by content hash when a worker 412s and needs seeding. Workload specs
	// that name files by path ("file:path=...") are seedable without this:
	// the pool remembers the path↔hash mapping from job serialization.
	ArtifactDirs []string
	// Retry is the pool's failover policy. ProbeInterval <= 0 is
	// overridden to 2s: a fleet service without revival would contradict
	// its reason to exist.
	Retry distrib.RetryPolicy
	// Log, when non-nil, receives one line per state change.
	Log io.Writer
}

// Sweep states.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// SweepRequest is the POST /v1/sweeps payload: one renderable target plus
// the Runner knobs that shape its job set. The zero value of every
// optional field matches the cmd/experiments default, so a sweep
// submitted with just {"target":"fig6"} renders the same bytes as a bare
// `experiments -fig6`.
type SweepRequest struct {
	// Target names what to render: "table1", "table2", "fig2".."fig13",
	// "zoo" or "wzoo" (experiments.TargetNames).
	Target string `json:"target"`
	// Quick selects the representative config subset (and fig8's sparser
	// offset sample), exactly like `experiments -quick`.
	Quick bool `json:"quick,omitempty"`
	// Instructions per simulation; 0 means the CLI default (300000).
	Instructions uint64 `json:"instructions,omitempty"`
	// Seed for synthetic workloads; 0 means 1.
	Seed uint64 `json:"seed,omitempty"`
	// Workloads optionally overrides the row set: one core-0 workload
	// spec per table row. Empty means the 29 paper benchmarks (trimmed to
	// the quick subset when Quick is set, like the CLI).
	Workloads []string `json:"workloads,omitempty"`
	// Warmup instructions before the measured region (stats reset at the
	// barrier), like `experiments -warmup`.
	Warmup uint64 `json:"warmup,omitempty"`
	// Submitter is the fair-share identity; empty means "anon". The queue
	// round-robins across submitters so one tenant's backlog cannot
	// starve another's.
	Submitter string `json:"submitter,omitempty"`
	// Priority orders the queue: higher runs first, fair-share applies
	// among equal priorities. 0 is the default tier.
	Priority int `json:"priority,omitempty"`
}

// defaultInstructions mirrors cmd/experiments' -n default.
const defaultInstructions = 300_000

func (req *SweepRequest) validate() error {
	if !experiments.ValidTarget(req.Target) {
		return fmt.Errorf("unknown target %q (want one of %v)", req.Target, experiments.TargetNames())
	}
	for _, w := range req.Workloads {
		sp, err := trace.ParseSpec(w)
		if err == nil {
			// Normalize checks the generator registry and parameter values,
			// so an unknown generator is refused at submit time, not
			// discovered when the sweep finally runs.
			_, err = trace.Normalize(sp)
		}
		if err != nil {
			return fmt.Errorf("workload %q: %v", w, err)
		}
	}
	if req.Instructions == 0 {
		req.Instructions = defaultInstructions
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.Submitter == "" {
		req.Submitter = "anon"
	}
	return nil
}

// sweep is one queued/completed sweep. All fields are guarded by
// Service.mu once the sweep is registered.
type sweep struct {
	id     int
	req    SweepRequest
	state  string
	output string // rendered table bytes, once done
	errMsg string // failure reason, once failed
}

// Service is the coordinator: a journal-backed sweep queue, a worker
// pool, and one executor goroutine draining the queue.
type Service struct {
	cfg  Config
	pool *distrib.Pool

	mu        sync.Mutex
	journal   *os.File
	sweeps    map[int]*sweep
	order     []int // submission order (= journal order), for queue views
	nextID    int
	rrLast    string          // fair-share cursor: last submitter granted a run
	announced map[string]bool // worker addrs ever registered (journal-backed)
	running   int             // sweep id currently executing, 0 when idle
	runner    *experiments.Runner

	kick chan struct{} // poked on submit/registration to wake the loop
	quit chan struct{}
	done chan struct{} // loop exited
}

// Open replays the journal under cfg.Dir (creating the directory on first
// use) and returns a Service ready to Start. Sweeps with no completion
// record — including one that was mid-run when the previous coordinator
// died — come back pending; completed sweeps come back with their output.
func Open(cfg Config) (*Service, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("fleet: Config.Dir is required")
	}
	if cfg.CacheDir == "" {
		cfg.CacheDir = filepath.Join(cfg.Dir, "cache")
	}
	if cfg.Retry.ProbeInterval <= 0 {
		cfg.Retry.ProbeInterval = 2 * time.Second
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: %v", err)
	}
	s := &Service{
		cfg:       cfg,
		pool:      distrib.NewPool(cfg.Retry),
		sweeps:    make(map[int]*sweep),
		nextID:    1,
		announced: make(map[string]bool),
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	s.pool.ArtifactSource = artifactSource(cfg.ArtifactDirs)
	if err := s.openJournal(); err != nil {
		s.pool.Close()
		return nil, err
	}
	pending := 0
	for _, sw := range s.sweeps {
		if sw.state == StatePending {
			pending++
		}
	}
	s.logf("journal replayed: %d sweeps (%d pending), %d known workers\n",
		len(s.sweeps), pending, len(s.announced))
	return s, nil
}

// Start launches the executor loop. Call once.
func (s *Service) Start() { go s.loop() }

// Close stops the executor loop and the pool's prober. A sweep executing
// right now is NOT waited for: its goroutine dies with the process, and —
// having no completion record — the sweep is requeued on the next Open,
// where the result cache makes the re-run cheap. That is the same
// recovery path a crash takes, so shutdown needs no second one.
func (s *Service) Close() {
	close(s.quit)
	s.pool.Close()
	select {
	case <-s.done:
	case <-time.After(time.Second):
		// Loop is inside a sweep; abandon it (see above).
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
}

// Pool exposes the worker pool (status views, tests).
func (s *Service) Pool() *distrib.Pool { return s.pool }

// Submit validates, journals and enqueues one sweep, returning its id.
func (s *Service) Submit(req SweepRequest) (int, error) {
	if err := req.validate(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	id := s.nextID
	s.nextID++
	sw := &sweep{id: id, req: req, state: StatePending}
	if err := s.appendLocked(record{Op: opSweep, ID: id, Req: &req}); err != nil {
		s.nextID-- // journal write failed: the sweep was never accepted
		s.mu.Unlock()
		return 0, err
	}
	s.sweeps[id] = sw
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.logf("sweep %d submitted: %s by %s (priority %d)\n", id, req.Target, req.Submitter, req.Priority)
	s.poke()
	return id, nil
}

// RegisterWorker records a worker address (journaled, so registration
// survives coordinator restarts) and tries to pool it immediately.
// pooled reports whether the worker is in the rotation right now; a
// false with nil error means the dial failed and the connect loop will
// keep retrying.
func (s *Service) RegisterWorker(addr string) (pooled bool, err error) {
	addr = normalizeAddr(addr)
	if addr == "" {
		return false, fmt.Errorf("empty worker address")
	}
	s.mu.Lock()
	if !s.announced[addr] {
		if err := s.appendLocked(record{Op: opWorker, Addr: addr}); err != nil {
			s.mu.Unlock()
			return false, err
		}
		s.announced[addr] = true
	}
	s.mu.Unlock()
	added, dialErr := s.pool.AddWorker(addr)
	if dialErr != nil {
		s.logf("worker %s registered but not reachable yet: %v\n", addr, dialErr)
		return false, nil
	}
	if added {
		s.logf("worker %s joined the pool\n", addr)
	}
	s.poke()
	return true, nil
}

func normalizeAddr(addr string) string {
	addr = strings.TrimSpace(addr)
	addr = strings.TrimPrefix(addr, "http://")
	addr = strings.TrimPrefix(addr, "https://")
	return strings.TrimSuffix(addr, "/")
}

func (s *Service) poke() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// loop is the executor: connect registered workers, run the next sweep,
// sleep until poked (or a short tick, which doubles as the connect retry
// timer for workers that were registered while unreachable).
func (s *Service) loop() {
	defer close(s.done)
	tick := time.NewTicker(2 * time.Second)
	defer tick.Stop()
	for {
		s.connectWorkers()
		if sw := s.claimNext(); sw != nil {
			s.runSweep(sw)
			continue
		}
		select {
		case <-s.quit:
			return
		case <-s.kick:
		case <-tick.C:
		}
	}
}

// connectWorkers re-dials every registered address the pool does not hold
// yet. Addresses already pooled are the pool prober's job (dead ones get
// revived there); this loop only covers workers that registered before
// they were reachable, or that were replayed from the journal while down.
func (s *Service) connectWorkers() {
	pooled := make(map[string]bool)
	for _, ws := range s.pool.WorkerStates() {
		pooled[ws.Addr] = true
	}
	s.mu.Lock()
	var missing []string
	for addr := range s.announced {
		if !pooled[addr] {
			missing = append(missing, addr)
		}
	}
	s.mu.Unlock()
	sort.Strings(missing)
	for _, addr := range missing {
		if added, err := s.pool.AddWorker(addr); err == nil && added {
			s.logf("worker %s joined the pool\n", addr)
		}
	}
}

// claimNext picks the next sweep to run: strict priority first, then
// fair-share round-robin across submitters within the top priority tier
// (cursor rrLast), then submission order within a submitter — so two
// tenants flooding the queue get alternating grants, and neither starves.
func (s *Service) claimNext() *sweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	best := 0
	first := true
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.state != StatePending {
			continue
		}
		if first || sw.req.Priority > best {
			best = sw.req.Priority
			first = false
		}
	}
	if first {
		return nil
	}
	// Submitters with pending work in the top tier, sorted for a stable
	// round-robin order.
	bySub := make(map[string]*sweep)
	for _, id := range s.order {
		sw := s.sweeps[id]
		if sw.state != StatePending || sw.req.Priority != best {
			continue
		}
		if _, ok := bySub[sw.req.Submitter]; !ok {
			bySub[sw.req.Submitter] = sw // oldest pending per submitter
		}
	}
	subs := make([]string, 0, len(bySub))
	for sub := range bySub {
		subs = append(subs, sub)
	}
	sort.Strings(subs)
	grant := subs[0]
	for _, sub := range subs {
		if sub > s.rrLast {
			grant = sub
			break
		}
	}
	s.rrLast = grant
	sw := bySub[grant]
	sw.state = StateRunning
	s.running = sw.id
	return sw
}

// runSweep executes one sweep and journals its completion; failed jobs
// come back from RenderTarget as an error and fail the sweep, not the
// daemon.
func (s *Service) runSweep(sw *sweep) {
	r := s.runnerFor(sw.req)
	s.mu.Lock()
	s.runner = r
	s.mu.Unlock()
	s.logf("sweep %d running: %s (%d slots)\n", sw.id, sw.req.Target, s.pool.Slots())
	var buf bytes.Buffer
	err := experiments.RenderTarget(r, sw.req.Target, sw.req.Quick, &buf)
	s.mu.Lock()
	s.runner = nil
	s.running = 0
	if err != nil {
		sw.state = StateFailed
		sw.errMsg = err.Error()
	} else {
		sw.state = StateDone
		sw.output = buf.String()
	}
	jerr := s.appendLocked(record{Op: opDone, ID: sw.id, State: sw.state, Output: sw.output, Error: sw.errMsg})
	s.mu.Unlock()
	if jerr != nil {
		s.logf("sweep %d: journaling completion failed: %v\n", sw.id, jerr)
	}
	s.logf("sweep %d %s\n", sw.id, sw.state)
}

// runnerFor builds the sweep's Runner exactly as cmd/experiments would
// for the same flags — that equivalence is the byte-identity argument.
func (s *Service) runnerFor(req SweepRequest) *experiments.Runner {
	configs := experiments.AllConfigs()
	if req.Quick {
		configs = experiments.QuickConfigs()
	}
	r := experiments.NewRunner(req.Instructions, configs)
	r.Seed = req.Seed
	r.CacheDir = s.cfg.CacheDir
	r.Warmup = req.Warmup
	r.Log = s.cfg.Log
	if len(req.Workloads) > 0 {
		r.Benchmarks = nil
		for _, w := range req.Workloads {
			r.Benchmarks = append(r.Benchmarks, trace.MustSpec(w))
		}
	} else if req.Quick {
		r.Benchmarks = experiments.QuickBenchmarks()
	}
	if s.pool.Slots() > 0 {
		r.Backend = s.pool
	}
	return r
}

// artifactSource resolves a content hash against the coordinator's
// artifact directories: the pool consults it when a worker 412s and the
// pool's own ship-time records don't cover the hash. trace.ContentSHA is
// memoized by size+mtime, so repeated scans re-hash only changed files.
func artifactSource(dirs []string) func(string) (string, bool) {
	return func(sha string) (string, bool) {
		for _, dir := range dirs {
			files, err := filepath.Glob(filepath.Join(dir, "*"))
			if err != nil {
				continue
			}
			for _, f := range files {
				if st, err := os.Stat(f); err != nil || st.IsDir() {
					continue
				}
				if trace.ContentSHA(f) == sha {
					return f, true
				}
			}
		}
		return "", false
	}
}

func (s *Service) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "bofleetd: "+format, args...)
}
