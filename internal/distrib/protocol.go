// Package distrib is the distributed execution backend for the experiment
// scheduler: a coordinator-side Pool that satisfies experiments.ExecBackend
// by fanning jobs out over HTTP, and the worker-side Server that
// cmd/boworkerd wraps around the simulation engine.
//
// The wire protocol leans on two properties the scheduler already
// guarantees. First, jobs are self-contained value objects: a normalized
// engine.Options names a synthetic workload and registry prefetcher specs by
// canonical strings, so serializing one is just JSON — no code or state
// moves. Second, results are content-addressed: the coordinator's
// OptionsHash keys a job, the worker recomputes the same hash from the
// payload as an integrity check, and the response reuses the disk cache's
// entry format (experiments.CacheEntry) so the coordinator can write it
// straight into the shared cache.
//
// Trace replays are the one job kind with a file dependency. The
// coordinator never ships trace bytes; it sends the trace's content
// SHA-256 (the same identity the cache keys by) and the worker resolves
// it against its own trace directories, refusing the job — with a
// distinct, retry-on-another-worker status — when it has no copy. Workers
// never receive files from the coordinator: a trace reaches a worker only
// through its own -trace-dir.
//
// See DESIGN.md ("Distributed execution") for the endpoint table and
// retry semantics.
package distrib

import (
	"bopsim/internal/engine"
)

// ProtocolVersion is bumped on incompatible changes to the endpoints or
// payload schemas below. A worker refuses jobs from a different protocol.
//
// v2: Job gained CheckpointSHA (warmup snapshots shipped by content hash,
// like traces) and Options gained the Warmup field.
//
// v3: Options carries per-core workload specs (Options.Workloads) instead
// of the Workload/TracePath pair; trace replays travel as "file" specs in
// hash form ("file:sha=HEX", resolved against the worker's trace
// directories), so the Job-level TraceSHA field is gone.
//
// v4: workers accepted artifact uploads, so a coordinator holding a trace
// or checkpoint could seed a worker that 412s instead of excluding it; the
// 412 ErrorBody named the missing hash in a structured SHA field; /healthz
// and /v1/run answer 503 with the "draining" code while the worker drains
// for a graceful shutdown.
//
// v5: the artifact upload endpoint and the 412 ErrorBody's SHA field are
// gone; a worker that 412s is excluded for that job, and the job retries
// on another worker.
const ProtocolVersion = 5

// MaxJobBytes bounds a /v1/run request body. A legitimate job is a few
// hundred bytes of JSON (options are value types; traces travel by hash),
// so anything near the megabyte is malformed or hostile and is rejected with
// 413 before being parsed.
const MaxJobBytes = 1 << 20

// Job is the /v1/run request payload: one simulation for the worker to
// execute.
type Job struct {
	// Protocol and Schema pin the wire protocol and the result-cache
	// schema (experiments.SchemaVersion) the coordinator was built
	// against. The worker refuses mismatches: a schema skew means the two
	// binaries' simulators can disagree, which would poison the shared
	// cache.
	Protocol int `json:"protocol"`
	Schema   int `json:"schema"`
	// Key is the coordinator's OptionsHash for this job. The worker
	// recomputes it from Options (after resolving file specs to local
	// paths) and refuses the job on mismatch — the cheap end-to-end check
	// that both sides normalize and hash identically.
	Key string `json:"key"`
	// Options is the run itself, normalized, with every "file" workload
	// spec in wire form: identified by content SHA-256 ("file:sha=HEX"),
	// never by coordinator-local path. The worker resolves each sha in its
	// own trace directories and refuses the job — with the retryable
	// trace_unavailable status — when it has no copy.
	Options engine.Options `json:"options"`
	// CheckpointSHA, when non-empty, identifies a warmup snapshot
	// (engine.Checkpoint bytes) by content hash. The worker resolves it in
	// its trace/checkpoint directories and forks the measured region from
	// it. Unlike a trace this is advisory: a worker without the snapshot
	// (or with an unusable one) runs the warmup itself — the engine's
	// determinism guarantee makes the result byte-identical — so a missing
	// checkpoint degrades throughput, never correctness.
	CheckpointSHA string `json:"checkpoint_sha,omitempty"`
}

// Info is the /v1/info response: the worker's advertisement.
type Info struct {
	Protocol int `json:"protocol"`
	Schema   int `json:"schema"`
	// Capacity is how many simulations the worker executes concurrently;
	// the coordinator contributes this many slots to the pool.
	Capacity int `json:"capacity"`
}

// Error codes carried in ErrorBody.Code. The HTTP status picks the
// client's broad reaction (retry elsewhere vs give up); the code says
// why.
const (
	// CodeMalformed: the body was not a parseable Job (HTTP 400).
	CodeMalformed = "malformed"
	// CodeSchemaMismatch: protocol or cache-schema skew (HTTP 409).
	CodeSchemaMismatch = "schema_mismatch"
	// CodeKeyMismatch: the worker's OptionsHash of the payload differs
	// from Job.Key (HTTP 409).
	CodeKeyMismatch = "key_mismatch"
	// CodeTraceUnavailable: the worker has no trace with the requested
	// content hash (HTTP 412); the coordinator should try a worker that
	// does.
	CodeTraceUnavailable = "trace_unavailable"
	// CodeSimFailed: the simulation itself returned an error (HTTP 422);
	// deterministic, so never retried.
	CodeSimFailed = "sim_failed"
	// CodeDraining: the worker is draining for a graceful shutdown and
	// accepts no new jobs (HTTP 503); the coordinator treats it like a
	// lost worker and requeues the job elsewhere.
	CodeDraining = "draining"
)

// ErrorBody is every non-200 response's JSON payload.
type ErrorBody struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}
