package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"bopsim/internal/engine"
	"bopsim/internal/trace"
)

// resultCacheVersion is bumped whenever the simulator's behaviour or the
// Options/Result schema changes in a way that invalidates stored results.
//
// v2: Options moved from the closed PrefetcherKind enum (+ FixedOffset/
// BOParams/SBPParams/StridePF escape hatches) to prefetch.Spec fields, and
// TracePath is keyed by trace *content* rather than path.
//
// v3: Options moved from the Workload/TracePath pair to per-core workload
// specs (Options.Workloads); file replays are keyed inside the spec by
// content hash (trace.HashSpec).
//
// v4: uncore.Stats counts each request once, when the path accepts it, so
// DL1Misses, L2DemandAccesses and L2Misses no longer count refused retries;
// dram.Stats loses its write-burst count.
//
// v5: dram.Stats loses its merged-read count, which always read 0.
//
// A bump simply invalidates: an older entry is never loaded (load rejects
// the version), VerifyCache counts it skipped, and EvictCache removes it
// first because it is the oldest thing in the directory.
const resultCacheVersion = 5

// OptionsHash returns the canonical cache key of one simulation run: a
// SHA-256 over the JSON encoding of the *normalized* options plus the cache
// schema version. Every option that can change the outcome participates
// (including Seed, the prefetcher specs, MaxCycles and the CPU config), and
// equivalent spellings of the same run — zero values versus explicit
// defaults, specs with spelled-out default parameters — hash identically
// because normalization resolves them first.
//
// Trace replays are keyed by the SHA-256 of the trace file's content, not
// its path: each "file" workload spec is rewritten to its hash form
// (trace.HashSpec), so editing a trace invalidates its cached results, and
// moving or copying one preserves them. An unreadable trace falls back to
// path keying (the simulation will fail with the real error anyway).
func OptionsHash(o engine.Options) string {
	keyed := struct {
		Version int
		Options engine.Options
	}{Version: resultCacheVersion, Options: o.Normalized()}
	// Normalized always reallocates the spec slice, so rewriting entries
	// here never aliases the caller's options.
	for i, w := range keyed.Options.Workloads {
		keyed.Options.Workloads[i] = trace.HashSpec(w)
	}
	b, err := json.Marshal(keyed)
	if err != nil {
		panic(fmt.Sprintf("experiments: options not hashable: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// CacheEntry is the on-disk record format: one JSON file per completed
// simulation, named <OptionsHash>.json, self-describing via the stored
// options so a human (or a migration tool) can see what produced it. It
// is written compact (json.Marshal); readers decode either that or the
// indented form older builds wrote, since both are the same JSON value. It
// doubles as the wire format a distrib worker returns a finished job in —
// the coordinator writes received entries straight into this cache.
type CacheEntry struct {
	Version int            `json:"version"`
	Options engine.Options `json:"options"`
	Result  engine.Result  `json:"result"`
}

// SchemaVersion reports the current result-cache schema version. Remote
// workers refuse jobs from a coordinator on a different schema, since a
// version mismatch means the simulator's behaviour (or the options
// encoding) differs.
func SchemaVersion() int { return resultCacheVersion }

// diskCache persists simulation results under one directory.
type diskCache struct{ dir string }

func (c diskCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// load returns the stored result for key, if present and schema-compatible.
// It decodes the whole CacheEntry, options included, so an entry with any
// malformed field is a miss, never half-served.
func (c diskCache) load(key string) (engine.Result, bool) {
	return c.loadInto(new(bytes.Buffer), key)
}

// loadInto is load reading the entry through buf, which it empties first
// and leaves grown for the next call: a loader keeps one buffer for every
// entry it reads instead of allocating a file-sized slice per entry.
// Unmarshal copies what it keeps, so the result never aliases buf.
func (c diskCache) loadInto(buf *bytes.Buffer, key string) (engine.Result, bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return engine.Result{}, false
	}
	defer f.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(f); err != nil {
		return engine.Result{}, false
	}
	var e CacheEntry
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Version != resultCacheVersion {
		return engine.Result{}, false
	}
	return e.Result, true
}

// store writes the result for key atomically (engine.WriteFileAtomic), so a
// concurrent reader never observes a partial entry, an interrupted run
// never corrupts the cache, and two processes sharing the directory that
// store one key at once never interleave into one temp file.
func (c diskCache) store(key string, o engine.Options, res engine.Result) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(CacheEntry{resultCacheVersion, o.Normalized(), res})
	if err != nil {
		return err
	}
	return engine.WriteFileAtomic(c.path(key), b)
}

// EvictCache is the size-bounded eviction pass: when the cache directory's
// .json entries and the warmup snapshots under its checkpoints
// subdirectory together exceed maxBytes, the oldest files (by modification
// time, i.e. least recently written) are deleted until the total fits. One
// budget covers both because a snapshot is larger than any result entry,
// and a SnapshotVersion bump orphans every older one under a WarmupKey no
// run will look up again. It returns how many files were removed and how
// many bytes were freed. A maxBytes <= 0 budget disables eviction.
func EvictCache(dir string, maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, 0, err
	}
	snapshots, err := filepath.Glob(filepath.Join(dir, checkpointSubdir, "*.ckpt"))
	if err != nil {
		return 0, 0, err
	}
	files = append(files, snapshots...)
	type entry struct {
		path  string
		size  int64
		mtime int64
	}
	var entries []entry
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			continue // raced with another process; skip
		}
		entries = append(entries, entry{path: f, size: st.Size(), mtime: st.ModTime().UnixNano()})
		total += st.Size()
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime < entries[j].mtime })
	for _, e := range entries {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return removed, freed, err
		}
		total -= e.size
		removed++
		freed += e.size
	}
	return removed, freed, nil
}
