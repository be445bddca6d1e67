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
	"sync/atomic"

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
// the snapshot (under the in-process pool, every variant but the group's
// leader, which runs on the machine that ran the leg). Checkpoints are cached
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

// ensure returns the checkpoint of warmup group key, whose leader is o. If
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
// machine. The leg is built from the group leader's options: the warmup runs
// without prefetchers and the snapshot carries none, so the bytes are the
// same under every spec variant of the group, and the machine can run on
// into the leader's measured region.
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

// ckptResolver lazily creates one checkpoint per warmup-equivalence group,
// on first demand from a dispatch slot. Laziness is the point: the first
// job of a group to arrive pays its group's warmup leg (or finds it
// cached), jobs of the same group wait on that leg only, and jobs of other
// groups keep the remaining slots busy — there is no global barrier
// stalling the whole sweep behind the slowest leg. RunJobs dispatches every
// group's first job before any other (leadersFirst), so the slots run
// different legs at once. Warmup legs always execute locally (they are the
// artifacts remote workers fork from), bounded to the local CPU count so a
// wide remote fleet cannot oversubscribe the coordinator.
type ckptResolver struct {
	store checkpointStore
	sem   chan struct{}
	logf  func(format string, args ...any)
	// groups maps a warmup key to its group's resolve function. leadersFirst
	// fills it before any job is dispatched, and nothing writes it after.
	groups map[string]func(job) (checkpointRef, *engine.Simulation, bool)
}

// checkpointResolver returns the Runner's lazy resolver, or nil when
// checkpointing is off or there is no directory to keep snapshots in:
// CheckpointDir, else a "checkpoints" subdirectory of the result cache.
func (r *Runner) checkpointResolver() *ckptResolver {
	if !r.Checkpoint {
		return nil
	}
	dir := r.CheckpointDir
	if dir == "" && r.CacheDir != "" {
		dir = filepath.Join(r.CacheDir, checkpointSubdir)
	}
	if dir == "" {
		r.logf("  warmup sharing off: no CheckpointDir or CacheDir to keep snapshots in\n")
		return nil
	}
	return &ckptResolver{
		store:  checkpointStore{dir: dir},
		sem:    make(chan struct{}, runtime.GOMAXPROCS(0)),
		logf:   r.logf,
		groups: make(map[string]func(job) (checkpointRef, *engine.Simulation, bool)),
	}
}

// leadersFirst keys jobs by warmup group, fixes each group's leader — its
// first job — and stable-partitions them so every leader comes before every
// other job. Figure builders enumerate a group's variants back to back;
// dispatched in that order, every slot beyond the first takes a follower of
// the group whose leg is still running and blocks on it, and the legs run
// one after another. Leaders first, each slot runs a different group's leg
// at once and a follower finds its snapshot ready. Jobs without a warmup
// key (no warmup region, unreadable trace) keep their place among the
// followers.
func (c *ckptResolver) leadersFirst(jobs []job) []job {
	leaders := make([]job, 0, len(jobs))
	var rest []job
	for _, j := range jobs {
		j.warmupKey, _ = WarmupKey(j.o)
		if j.warmupKey != "" && c.groups[j.warmupKey] == nil {
			c.groups[j.warmupKey] = c.group(j)
			leaders = append(leaders, j)
		} else {
			rest = append(rest, j)
		}
	}
	return append(leaders, rest...)
}

// group returns the resolve function of leader's warmup group. The leg runs
// once, on the first call, and is always built from leader's options,
// whichever job's call runs it: dispatch order does not fix arrival order,
// and a leg built from a follower's options would succeed where the
// leader's fails. The machine that ran the leg, standing at its barrier
// with leader's prefetchers installed, goes to leader's call alone; every
// other job forks from the snapshot. A group whose leg fails resolves to
// false: its jobs run straight, and the real error surfaces there.
func (c *ckptResolver) group(leader job) func(job) (checkpointRef, *engine.Simulation, bool) {
	var once sync.Once
	var ref checkpointRef
	var ok bool
	var leg atomic.Pointer[engine.Simulation]
	return func(j job) (checkpointRef, *engine.Simulation, bool) {
		once.Do(func() {
			var s *engine.Simulation
			ref, s, ok = c.runLeg(leader)
			leg.Store(s)
		})
		if j.cacheKey != leader.cacheKey {
			return ref, nil, ok
		}
		return ref, leg.Swap(nil), ok
	}
}

// runLeg returns the checkpoint of leader's warmup group, running the leg
// (bounded by the resolver's semaphore) when no snapshot is on disk yet,
// and the machine that ran it, if one did.
func (c *ckptResolver) runLeg(leader job) (checkpointRef, *engine.Simulation, bool) {
	c.sem <- struct{}{}
	defer func() { <-c.sem }()
	ref, s, err := c.store.ensure(context.Background(), leader.warmupKey, leader.o)
	if err != nil {
		c.logf("  warmup leg %.12s failed (%v); group runs without checkpoint\n", leader.warmupKey, err)
		return checkpointRef{}, nil, false
	}
	c.logf("  warmup %.12s ready (%s)\n", leader.warmupKey, filepath.Base(ref.path))
	return ref, s, true
}

// resolve returns the checkpoint of j's warmup group, running the warmup leg
// on first demand, and hands the leg's machine to the group's leader. A job
// without a group (no warmup key) resolves to false.
func (c *ckptResolver) resolve(j job) (checkpointRef, *engine.Simulation, bool) {
	g := c.groups[j.warmupKey]
	if g == nil {
		return checkpointRef{}, nil, false
	}
	return g(j)
}
