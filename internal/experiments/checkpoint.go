package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"bopsim/internal/engine"
	"bopsim/internal/trace"
)

// Warmup sharing. Every point of a sweep (offset/threshold sweeps, -zoo)
// replays the same trace warmup before its measured region; without
// sharing, a 40-variant sweep pays that warmup 40 times. The scheduler
// therefore groups pending jobs by warmup-equivalence key — the engine's
// WarmupSignature, which covers everything that shapes machine state up to
// the barrier and deliberately excludes the swept prefetcher specs — runs
// one warmup leg per group, checkpoints it, and forks every variant from
// the snapshot (under the in-process pool, every variant but the one whose
// machine ran the leg: that one runs on). Checkpoints are cached
// content-addressed on disk (named by signature hash, verified and shipped
// by content SHA-256 exactly like traces), so later invocations skip even
// the single warmup leg.
//
// Correctness never depends on a checkpoint: the engine's determinism
// guarantee makes a restored run byte-identical to a straight one, and
// every consumer (local backend, remote worker) falls back to the straight
// run when a snapshot is missing, corrupt or version-skewed.

// WarmupKey returns the hex SHA-256 of o's warmup signature: the identity
// of the warmup leg the run needs. Jobs with equal keys can fork from one
// checkpoint. It returns an error for jobs without a warmup region (there
// is nothing to share) or whose trace file is unreadable; the scheduler runs
// those straight.
func WarmupKey(o engine.Options) (string, error) {
	o = o.Normalized()
	if o.Warmup == 0 {
		return "", fmt.Errorf("experiments: run has no warmup region")
	}
	sig, err := o.WarmupSignature()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(sig))
	return hex.EncodeToString(sum[:]), nil
}

// checkpointRef locates one warmup snapshot: where it lives on this
// machine and what its content hash is (the identity remote workers
// resolve against their own -trace-dir indexes).
type checkpointRef struct {
	path string
	sha  string
}

// checkpointStore manages the on-disk warmup snapshot cache: one
// <WarmupKey>.ckpt file per warmup-equivalence group.
type checkpointStore struct{ dir string }

func (c checkpointStore) pathFor(key string) string {
	return filepath.Join(c.dir, key+".ckpt")
}

// ensure returns the checkpoint of warmup group key, which o belongs to. If
// no cached snapshot exists it runs the warmup leg, writes the snapshot and
// also returns the machine that ran the leg, standing at its barrier.
func (c checkpointStore) ensure(ctx context.Context, key string, o engine.Options) (checkpointRef, *engine.Simulation, error) {
	path := c.pathFor(key)
	if sha := trace.ContentSHA(path); sha != "" {
		return checkpointRef{path: path, sha: sha}, nil, nil
	}
	s, data, err := runWarmupLeg(ctx, o)
	if err != nil {
		return checkpointRef{}, nil, err
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return checkpointRef{}, nil, err
	}
	if err := engine.WriteFileAtomic(path, data); err != nil {
		return checkpointRef{}, nil, err
	}
	sum := sha256.Sum256(data)
	return checkpointRef{path: path, sha: hex.EncodeToString(sum[:])}, s, nil
}

// runWarmupLeg executes o's warmup region to its barrier and serializes the
// machine. The leg is built from the job's own options: the warmup runs
// without prefetchers and the snapshot carries none, so the bytes are the
// same under every spec variant of the group, and the machine can run on
// into o's measured region.
func runWarmupLeg(ctx context.Context, o engine.Options) (*engine.Simulation, []byte, error) {
	s, err := engine.New(o)
	if err != nil {
		return nil, nil, err
	}
	if err := s.RunWarmup(ctx); err != nil {
		return nil, nil, err
	}
	data, err := s.Checkpoint()
	return s, data, err
}

// checkpointSubdir is where snapshots live inside a result cache directory;
// EvictCache bounds it together with the result entries.
const checkpointSubdir = "checkpoints"

// checkpointDir resolves where warmup snapshots live: the configured
// directory, a "checkpoints" subdirectory of the result cache, or — as a
// last resort — a private temporary directory for this Runner. The
// fallback is deliberately fresh and 0700 rather than a fixed world-shared
// path: Restore trusts any snapshot whose signature matches, so a
// predictable shared directory would let another local user pre-plant
// forged machine state. Sharing snapshots across invocations needs
// CacheDir or CheckpointDir — long-lived callers should set one of them,
// since the fallback directory lives until something removes it
// (cmd/experiments creates and removes its own instead).
func (r *Runner) checkpointDir() string {
	if r.CheckpointDir != "" {
		return r.CheckpointDir
	}
	if r.CacheDir != "" {
		return filepath.Join(r.CacheDir, checkpointSubdir)
	}
	r.ckptTmpOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bopsim-checkpoints-")
		if err != nil {
			r.logf("  checkpoint dir: %v; warmup sharing disabled\n", err)
			return
		}
		r.ckptTmp = dir
	})
	return r.ckptTmp
}

// ckptResolver lazily creates one checkpoint per warmup-equivalence group,
// on first demand from a dispatch slot. Laziness is the point: the first
// job of a group pays its group's warmup leg (or finds it cached), jobs of
// the same group wait on that leg only, and jobs of other groups keep the
// remaining slots busy — there is no global barrier stalling the whole
// sweep behind the slowest leg. RunJobs dispatches every group's first job
// before any other (leadersFirst), so the slots run different legs at
// once. Warmup legs always execute locally (they are the artifacts remote
// workers fork from), bounded to the local CPU count so a wide remote
// fleet cannot oversubscribe the coordinator.
type ckptResolver struct {
	store  checkpointStore
	sem    chan struct{}
	logf   func(format string, args ...any)
	mu     sync.Mutex
	groups map[string]*ckptEntry
}

type ckptEntry struct {
	once sync.Once
	ref  checkpointRef
	ok   bool
}

// checkpointResolver returns the Runner's lazy resolver, or nil when
// checkpointing is off or no snapshot directory could be resolved.
func (r *Runner) checkpointResolver() *ckptResolver {
	if !r.Checkpoint {
		return nil
	}
	dir := r.checkpointDir()
	if dir == "" {
		return nil
	}
	return &ckptResolver{
		store:  checkpointStore{dir: dir},
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		logf:   r.logf,
		groups: make(map[string]*ckptEntry),
	}
}

// leadersFirst keys jobs by warmup group and stable-partitions them so the
// first job of every group comes before every other job. Figure builders
// enumerate a group's variants back to back; dispatched in that order, every
// slot beyond the first takes a follower of the group whose leg is still
// running and blocks on it, and the legs run one after another. Leaders
// first, each slot runs a different group's leg at once and a follower finds
// its snapshot ready. Jobs without a warmup key (no warmup region, unreadable
// trace) keep their place among the followers.
func leadersFirst(jobs []job) []job {
	seen := make(map[string]bool)
	leaders := make([]job, 0, len(jobs))
	var rest []job
	for _, j := range jobs {
		j.warmupKey, _ = WarmupKey(j.o)
		if j.warmupKey != "" && !seen[j.warmupKey] {
			seen[j.warmupKey] = true
			leaders = append(leaders, j)
		} else {
			rest = append(rest, j)
		}
	}
	return append(leaders, rest...)
}

// resolve returns the checkpoint of j's warmup group, running the warmup leg
// on first demand. The one caller whose demand ran the leg also gets the
// machine that ran it, at its barrier with j's own prefetchers installed;
// every other caller, and every caller when the snapshot was already on
// disk, gets nil. A group whose leg fails resolves to false: its jobs run
// straight, and the real error surfaces there.
func (c *ckptResolver) resolve(j job) (checkpointRef, *engine.Simulation, bool) {
	if j.warmupKey == "" {
		return checkpointRef{}, nil, false
	}
	c.mu.Lock()
	e := c.groups[j.warmupKey]
	if e == nil {
		e = &ckptEntry{}
		c.groups[j.warmupKey] = e
	}
	c.mu.Unlock()
	var leg *engine.Simulation
	e.once.Do(func() {
		c.sem <- struct{}{}
		defer func() { <-c.sem }()
		ref, s, err := c.store.ensure(context.Background(), j.warmupKey, j.o)
		if err != nil {
			c.logf("  warmup leg %.12s failed (%v); group runs without checkpoint\n", j.warmupKey, err)
			return
		}
		e.ref, e.ok, leg = ref, true, s
		c.logf("  warmup %.12s ready (%s)\n", j.warmupKey, filepath.Base(ref.path))
	})
	return e.ref, leg, e.ok
}
