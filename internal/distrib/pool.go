package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"bopsim/internal/engine"
	"bopsim/internal/experiments"
	"bopsim/internal/trace"
)

// RetryPolicy bounds how the coordinator reacts to lost workers: a job
// whose request dies mid-flight (connection refused, reset, truncated
// response, 5xx) or comes back with a 200 that does not answer it is
// requeued on another live worker, sleeping Backoff first. Job-level
// failures (the simulation itself errors, schema skew) are deterministic
// and never retried.
type RetryPolicy struct {
	// MaxAttempts bounds execution attempts per job: each worker loss
	// consumes one, and the job fails once MaxAttempts attempts have
	// been cut short (so MaxAttempts of 1 means no failover at all).
	// <= 0 means 3, i.e. a job tolerates two worker losses.
	MaxAttempts int
	// Backoff after a worker loss; < 0 means none, 0 means 100ms.
	Backoff time.Duration
}

// maxWorkerCapacity bounds what one worker may advertise: each capacity
// unit becomes a coordinator slot (a goroutine plus bookkeeping), so an
// absurd value from a misconfigured worker must not balloon the
// coordinator. 1024 is far above any real machine's useful simulation
// parallelism.
const maxWorkerCapacity = 1024

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 3
}

func (p RetryPolicy) backoff() time.Duration {
	if p.Backoff < 0 {
		return 0
	}
	if p.Backoff == 0 {
		return 100 * time.Millisecond
	}
	return p.Backoff
}

// worker is the coordinator's view of one boworkerd daemon.
type worker struct {
	addr     string // "host:port", display form
	base     string // "http://host:port"
	capacity int
	dead     bool
}

// Pool implements experiments.ExecBackend (checked below) without the
// experiments package knowing this package exists; cmd/experiments wires
// the two together.
var (
	_ experiments.ExecBackend       = (*Pool)(nil)
	_ experiments.CheckpointBackend = (*Pool)(nil)
)

// Pool fans the scheduler's jobs out to a set of workers. It satisfies
// experiments.ExecBackend: every capacity unit a worker advertises
// becomes one scheduler slot, homed on that worker; when a worker is
// lost, its slots fail over to the survivors (whose /v1/run queues
// excess jobs), so the sweep finishes as long as one worker lives. A
// lost worker stays written off for the Pool's lifetime.
type Pool struct {
	retry  RetryPolicy
	client *http.Client

	mu      sync.Mutex
	workers []*worker
	home    []int // slot -> index into workers
	ordinal []int // slot -> slot ordinal within its home worker
	next    int   // round-robin cursor for failover picks
}

// Close releases the Pool's idle keep-alive connections. Jobs in flight
// are unaffected, and the pool remains usable.
func (p *Pool) Close() { p.client.CloseIdleConnections() }

// Dial contacts every worker's /v1/info, verifies protocol and schema
// agreement, and builds a Pool with one slot per advertised capacity
// unit. Any unreachable or incompatible worker fails the whole call: the
// operator listed it, so silently running without it would be a
// misconfiguration masked as a slow sweep.
func Dial(addrs []string, retry RetryPolicy) (*Pool, error) {
	if len(addrs) == 0 {
		return nil, errors.New("distrib: no worker addresses")
	}
	// The default transport keeps only 2 idle connections per host — far
	// under a worker's concurrent slot count — which would redial TCP for
	// most jobs despite drainAndClose. Size the idle pool to cover the
	// capacity cap instead.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = maxWorkerCapacity
	transport.MaxIdleConns = 0 // no global cap beyond the per-host one
	p := &Pool{retry: retry, client: &http.Client{Transport: transport}}
	for _, addr := range addrs {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		w, err := dialWorker(p.client, addr)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.workers = append(p.workers, w)
	}
	// Interleave slots across workers (A#0, B#0, A#1, B#1, ...) so a job
	// set smaller than the total capacity still spreads over every
	// worker — RunJobs clamps its slot count to the job count, and
	// contiguous homing would leave later-listed workers idle.
	for k := 0; ; k++ {
		added := false
		for idx, w := range p.workers {
			if k < w.capacity {
				p.home = append(p.home, idx)
				p.ordinal = append(p.ordinal, k)
				added = true
			}
		}
		if !added {
			break
		}
	}
	if len(p.home) == 0 {
		p.Close()
		return nil, errors.New("distrib: workers advertise zero total capacity")
	}
	return p, nil
}

func dialWorker(client *http.Client, addr string) (*worker, error) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/info", nil)
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %s: %v", addr, err)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("distrib: worker %s unreachable: %v", addr, err)
	}
	defer drainAndClose(resp)
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("distrib: worker %s: bad /v1/info response: %v", addr, err)
	}
	if info.Protocol != ProtocolVersion || info.Schema != experiments.SchemaVersion() {
		return nil, fmt.Errorf("distrib: worker %s speaks protocol %d / schema %d, coordinator wants %d / %d",
			addr, info.Protocol, info.Schema, ProtocolVersion, experiments.SchemaVersion())
	}
	if info.Capacity < 1 || info.Capacity > maxWorkerCapacity {
		return nil, fmt.Errorf("distrib: worker %s advertises capacity %d (want 1..%d)",
			addr, info.Capacity, maxWorkerCapacity)
	}
	return &worker{addr: strings.TrimPrefix(strings.TrimPrefix(base, "http://"), "https://"),
		base: base, capacity: info.Capacity}, nil
}

// Slots implements experiments.ExecBackend: the workers' total capacity.
func (p *Pool) Slots() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.home)
}

// SlotLabel implements experiments.ExecBackend ("host:port#2").
func (p *Pool) SlotLabel(slot int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := p.workers[p.home[slot]]
	return fmt.Sprintf("%s#%d", w.addr, p.ordinal[slot])
}

// Workers reports how many workers were dialed and how many are still
// alive.
func (p *Pool) Workers() (total, alive int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, w := range p.workers {
		if !w.dead {
			alive++
		}
	}
	return len(p.workers), alive
}

// Run implements experiments.ExecBackend: execute one simulation on a
// worker, preferring the slot's home worker and failing over per
// RetryPolicy when workers are lost.
//
// Only worker losses consume the bounded retry budget. A trace probe
// (412) grows the per-job exclusion set instead, which the number of
// workers bounds — so a trace any worker holds is found no matter how
// many workers lack it.
func (p *Pool) Run(slot int, o engine.Options) (engine.Result, error) {
	job, err := makeJob(o)
	if err != nil {
		return engine.Result{}, err
	}
	return p.runJob(slot, job)
}

// RunFrom implements experiments.CheckpointBackend: the job ships the
// warmup snapshot's content hash (never its bytes — the same transfer
// model as traces) and each worker resolves it against its own indexed
// directories, falling back to running the warmup itself when it has no
// copy. Either way the result bytes are those of Run.
func (p *Pool) RunFrom(slot int, o engine.Options, _, checkpointSHA string) (engine.Result, error) {
	job, err := makeJob(o)
	if err != nil {
		return engine.Result{}, err
	}
	job.CheckpointSHA = checkpointSHA
	return p.runJob(slot, job)
}

func (p *Pool) runJob(slot int, job Job) (engine.Result, error) {
	lost := 0
	noTrace := make(map[*worker]bool)
	var lastErr error
	for {
		w := p.pick(slot, noTrace)
		if w == nil {
			if lastErr == nil {
				lastErr = errors.New("all workers lost")
			}
			return engine.Result{}, fmt.Errorf("distrib: no usable worker for job: %w", lastErr)
		}
		res, verdict, err := p.post(w, job)
		switch verdict {
		case verdictOK:
			return res, nil
		case verdictPermanent:
			return engine.Result{}, err
		case verdictNoTrace:
			lastErr = err
			noTrace[w] = true
		case verdictWorkerLost:
			p.markDead(w)
			lastErr = err
			if lost++; lost >= p.retry.attempts() {
				return engine.Result{}, fmt.Errorf("distrib: job failed after losing %d workers: %w", lost, lastErr)
			}
			time.Sleep(p.retry.backoff())
		}
	}
}

// makeJob serializes one run for the wire: normalized options with every
// "file" workload spec rewritten to its content hash (never a
// coordinator-local path), plus the coordinator's cache key — which hashes
// the same wire form, so the worker's recomputation must agree.
func makeJob(o engine.Options) (Job, error) {
	n := o.Normalized()
	for i, w := range n.Workloads {
		wire, err := trace.WireSpec(w)
		if err != nil {
			return Job{}, fmt.Errorf("distrib: %v", err)
		}
		n.Workloads[i] = wire
	}
	return Job{
		Protocol: ProtocolVersion,
		Schema:   experiments.SchemaVersion(),
		Key:      experiments.OptionsHash(n),
		Options:  n,
	}, nil
}

// pick chooses the worker for one attempt: the slot's home worker when
// it is still usable, otherwise the next usable worker round-robin —
// spreading orphaned slots over the survivors instead of piling them on
// one.
func (p *Pool) pick(slot int, exclude map[*worker]bool) *worker {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w := p.workers[p.home[slot]]; !w.dead && !exclude[w] {
		return w
	}
	for i := 0; i < len(p.workers); i++ {
		w := p.workers[(p.next+i)%len(p.workers)]
		if !w.dead && !exclude[w] {
			p.next = (p.next + i + 1) % len(p.workers)
			return w
		}
	}
	return nil
}

func (p *Pool) markDead(w *worker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w.dead = true
}

// drainAndClose reads the body to EOF before closing so the transport
// can return the connection to its keep-alive pool — json.Decode stops
// at the end of the value and never observes EOF, and a per-job TCP
// handshake would pile up TIME_WAIT sockets over a large sweep.
func drainAndClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

type verdict int

const (
	verdictOK verdict = iota
	// verdictPermanent: the job itself is bad (sim error, schema or key
	// skew); retrying elsewhere would fail identically.
	verdictPermanent
	// verdictNoTrace: this worker lacks the job's trace; another may
	// have it.
	verdictNoTrace
	// verdictWorkerLost: transport-level failure, 5xx, a draining worker
	// or a 200 that does not answer the job; the worker is written off
	// and the job requeued.
	verdictWorkerLost
)

// post runs one attempt against one worker. There is deliberately no
// request timeout: a simulation can legitimately run for minutes, and a
// killed worker surfaces promptly as a connection error anyway.
func (p *Pool) post(w *worker, job Job) (engine.Result, verdict, error) {
	b, err := json.Marshal(job)
	if err != nil {
		return engine.Result{}, verdictPermanent, fmt.Errorf("distrib: encoding job: %v", err)
	}
	resp, err := p.client.Post(w.base+"/v1/run", "application/json", bytes.NewReader(b))
	if err != nil {
		return engine.Result{}, verdictWorkerLost, fmt.Errorf("worker %s: %v", w.addr, err)
	}
	defer drainAndClose(resp)
	if resp.StatusCode == http.StatusOK {
		var entry experiments.CacheEntry
		if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
			// A truncated 200 means the worker died mid-response.
			return engine.Result{}, verdictWorkerLost, fmt.Errorf("worker %s: truncated response: %v", w.addr, err)
		}
		// End-to-end integrity: the entry must be in this binary's schema
		// and its options must describe the job we sent. The worker answers
		// in wire form (file specs by sha, the resolved local path never
		// echoed), which hashes identically to the coordinator's key, so
		// trace jobs are checked like any other. Dial already agreed
		// protocol and schema with this worker, so an entry failing either
		// check says the worker is broken, not the job: write the worker
		// off and requeue, like any other lost worker.
		if entry.Version != experiments.SchemaVersion() {
			return engine.Result{}, verdictWorkerLost,
				fmt.Errorf("worker %s returned cache schema v%d, want v%d", w.addr, entry.Version, experiments.SchemaVersion())
		}
		if got := experiments.OptionsHash(entry.Options); got != job.Key {
			return engine.Result{}, verdictWorkerLost,
				fmt.Errorf("worker %s returned result for key %.12s, job was %.12s", w.addr, got, job.Key)
		}
		return entry.Result, verdictOK, nil
	}
	var eb ErrorBody
	_ = json.NewDecoder(resp.Body).Decode(&eb)
	errDetail := eb.Error
	if errDetail == "" {
		errDetail = resp.Status
	}
	err = fmt.Errorf("worker %s: %s (%s)", w.addr, errDetail, eb.Code)
	switch {
	case resp.StatusCode == http.StatusPreconditionFailed:
		return engine.Result{}, verdictNoTrace, err
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return engine.Result{}, verdictPermanent, err
	default:
		return engine.Result{}, verdictWorkerLost, err
	}
}
