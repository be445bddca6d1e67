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
	"strconv"
	"syscall"

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
// A bump simply invalidates: an older entry is never loaded (loadInto
// rejects the version), VerifyCache counts it skipped, and EvictCache
// removes it first because it is the oldest thing in the directory. The
// .json entries of builds before the record format (entry.go) are never
// read at all; VerifyCache counts them skipped and EvictCache removes them
// ahead of everything else.
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
	key, _ := runKey(o)
	return key
}

// keyPrefix opens what OptionsHash hashes, the JSON encoding of
// {Version, Options}: keyPrefix, the options' own encoding, then "}".
var keyPrefix = `{"Version":` + strconv.Itoa(resultCacheVersion) + `,"Options":`

// runKey returns OptionsHash(o) and the JSON encoding of o's normalized
// options: the bytes a record of the run stores and a loader compares
// (entry.go). The options are encoded once, inside the {Version, Options}
// value the key hashes, and returned as that encoding's middle. A file
// workload is the exception: the record names its trace by path and the key
// by content, so the key hashes a second encoding, in hash form.
func runKey(o engine.Options) (key string, opts []byte) {
	keyed := struct {
		Version int
		Options engine.Options
	}{Version: resultCacheVersion, Options: o.Normalized()}
	b := mustMarshal(keyed)
	opts = b[len(keyPrefix) : len(b)-1 : len(b)-1]
	// Normalized always reallocates the spec slice, so rewriting entries
	// here never aliases the caller's options.
	file := false
	for i, w := range keyed.Options.Workloads {
		if w.Name == "file" {
			keyed.Options.Workloads[i] = trace.HashSpec(w)
			file = true
		}
	}
	if file {
		b = mustMarshal(keyed)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), opts
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("experiments: options not hashable: %v", err))
	}
	return b
}

// CacheEntry is the wire form of a finished job: what a distrib worker
// answers /v1/run with, JSON, self-describing via the stored options so the
// coordinator can check that they hash to the job's key. The coordinator's
// write-through stores the result as a record (entry.go), like any other;
// the disk cache holds no CacheEntry. TestSchemaLock pins it, and with it
// every struct a record carries.
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
type diskCache struct {
	dir string // cleaned and ending in a path separator
}

// newDiskCache returns the cache under dir. The directory is cleaned once
// here, so naming a record is one concatenation: filepath.Join would clean
// the whole path again on every probe.
func newDiskCache(dir string) diskCache {
	if dir = filepath.Clean(dir); !os.IsPathSeparator(dir[len(dir)-1]) {
		dir += string(filepath.Separator)
	}
	return diskCache{dir}
}

// path names key's record.
func (c diskCache) path(key string) string { return c.dir + key + entryExt }

// loadInto returns the result stored for key when its record is whole, of
// this resultCacheVersion, and stores exactly opts, the options the key was
// computed from (runKey): an entry filed under another run's key is a miss.
// It reads the record through buf, which it empties first and leaves grown
// for the next call, so a loader keeps one buffer for every entry it reads.
// decodeEntry copies what the result keeps, so it never aliases buf.
func (c diskCache) loadInto(buf *bytes.Buffer, key string, opts []byte) (engine.Result, bool) {
	buf.Reset()
	if !readFile(buf, c.path(key), syscall.Open, syscall.Read, syscall.Close) {
		return engine.Result{}, false
	}
	stored, res, ok := decodeEntry(buf.Bytes())
	if !ok || !bytes.Equal(stored, opts) {
		return engine.Result{}, false
	}
	return res, true
}

// readFile appends the content of the file at path to buf with bare system
// calls, open, read until end of file and close, and reports whether all of
// them succeeded. os.Open costs about twice the calls on a regular file: it
// also tries to register the descriptor with the runtime's poller and sets
// a finalizer, which is most of what reading a small record costs. open is
// syscall.Open, whose arity differs on Plan 9, and FD is the descriptor
// type read and close take (a Handle on Windows), so one body builds on
// every platform.
func readFile[FD any](buf *bytes.Buffer, path string, open any, read func(FD, []byte) (int, error), closeFD func(FD) error) bool {
	const mode = syscall.O_RDONLY | syscall.O_CLOEXEC
	var fd FD
	var err error
	switch open := open.(type) {
	case func(string, int, uint32) (FD, error):
		fd, err = open(path, mode, 0)
	case func(string, int) (FD, error):
		fd, err = open(path, mode)
	default:
		panic(fmt.Sprintf("experiments: syscall.Open is a %T", open))
	}
	if err != nil {
		return false
	}
	defer closeFD(fd)
	for {
		buf.Grow(bytes.MinRead)
		b := buf.AvailableBuffer()
		n, err := read(fd, b[:cap(b)])
		switch {
		case err == syscall.EINTR:
		case err != nil:
			return false
		case n == 0:
			return true
		default:
			buf.Write(b[:n])
		}
	}
}

// store writes the record of key, whose options encode as opts, atomically
// (engine.WriteFileAtomic), so a concurrent reader never observes a partial
// entry, an interrupted run never corrupts the cache, and two processes
// sharing the directory that store one key at once never interleave into
// one temp file.
func (c diskCache) store(key string, opts []byte, res engine.Result) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	return engine.WriteFileAtomic(c.path(key), appendEntry(nil, opts, res))
}

// EvictCache is the size-bounded eviction pass: when the cache directory's
// entries and the warmup snapshots under its checkpoints subdirectory
// together exceed maxBytes, files are deleted until the total fits — first
// the .json entries older builds left, which no loader reads, then the
// oldest files by modification time (least recently written). One budget
// covers entries and snapshots because a snapshot is larger than any
// result entry, and a SnapshotVersion bump orphans every older one under a
// WarmupKey no run will look up again. It returns how many files were
// removed and how many bytes were freed. A maxBytes <= 0 budget disables
// eviction.
func EvictCache(dir string, maxBytes int64) (removed int, freed int64, err error) {
	if maxBytes <= 0 {
		return 0, 0, nil
	}
	var files []string
	for _, pattern := range []string{"*.json", "*" + entryExt, filepath.Join(checkpointSubdir, "*.ckpt")} {
		matched, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return 0, 0, err
		}
		files = append(files, matched...)
	}
	type entry struct {
		path  string
		size  int64
		mtime int64
		dead  bool // an older build's .json entry
	}
	var entries []entry
	var total int64
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			continue // raced with another process; skip
		}
		entries = append(entries, entry{path: f, size: st.Size(), mtime: st.ModTime().UnixNano(), dead: filepath.Ext(f) == ".json"})
		total += st.Size()
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].dead != entries[j].dead {
			return entries[i].dead
		}
		return entries[i].mtime < entries[j].mtime
	})
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
