package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bopsim/internal/engine"
)

// entryFiles returns the records in dir, sorted.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"+entryExt))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// readEntry decodes the record at path, failing the test unless it is one.
func readEntry(t *testing.T, path string) (opts []byte, res engine.Result) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	opts, res, ok := decodeEntry(b)
	if !ok {
		t.Fatalf("%s: not a record of this version", filepath.Base(path))
	}
	return opts, res
}

// writeEntry writes the record of opts and res to path, stamped with
// version. A version below 128 is the one uvarint byte after the magic.
func writeEntry(t *testing.T, path string, version int, opts []byte, res engine.Result) {
	t.Helper()
	b := appendEntry(nil, opts, res)
	b[len(entryMagic)] = byte(version)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSchemaBumpInvalidates pins what a resultCacheVersion bump costs: an
// entry stamped with an older version is never served — even filed under
// the key a current run computes — is counted skipped by VerifyCache, and
// is what EvictCache removes first, being older than every current entry.
func TestSchemaBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	r1 := tinyRunner()
	r1.CacheDir = dir
	r1.Fig2() // 2 entries
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d cache files, want 2", len(files))
	}

	// Restamp one entry as the previous schema, with a result that would
	// show if it were served, and file a copy under a key no run computes.
	opts, res := readEntry(t, files[0])
	res.IPC = 99
	unreachable := filepath.Join(dir, strings.Repeat("0", 64)+entryExt)
	past := time.Now().Add(-time.Hour)
	for _, path := range []string{files[0], unreachable} {
		writeEntry(t, path, resultCacheVersion-1, opts, res)
		if err := os.Chtimes(path, past, past); err != nil {
			t.Fatal(err)
		}
	}

	rep, err := VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2 || rep.Entries != 1 || rep.Mismatched != 0 {
		t.Errorf("verify: %+v, want 2 skipped, 1 entry, 0 mismatched", rep)
	}

	r2 := tinyRunner()
	r2.CacheDir = dir
	r2.Fig2()
	if got := r2.Executed(); got != 1 {
		t.Errorf("executed %d simulations with one old-version entry, want 1", got)
	}
	if _, res := readEntry(t, files[0]); res.IPC == 99 {
		t.Errorf("old-version entry not rewritten at the current version (IPC=%v)", res.IPC)
	}

	var total int64
	for _, f := range entryFiles(t, dir) {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	removed, _, err := EvictCache(dir, total-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(unreachable); removed != 1 || !os.IsNotExist(err) {
		t.Errorf("evicted %d entries, old-version entry gone=%v; want exactly that one", removed, os.IsNotExist(err))
	}
}

// TestOlderBuildsJSONEntries covers the .json entries that builds before
// the record format left in a cache directory: no loader reads them, so
// a render executes as if they were absent, VerifyCache counts each
// skipped, and EvictCache removes them before any record or snapshot, even
// when they are the newest files there.
func TestOlderBuildsJSONEntries(t *testing.T) {
	dir := t.TempDir()
	r1 := tinyRunner()
	r1.CacheDir = dir
	want := r1.Fig2().String()
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d cache files, want 2", len(files))
	}
	// The JSON an older build stored for files[0]'s run, under its key.
	opts, res := readEntry(t, files[0])
	var e CacheEntry
	if err := json.Unmarshal(opts, &e.Options); err != nil {
		t.Fatal(err)
	}
	e.Version, e.Result = resultCacheVersion, res
	old, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	key := strings.TrimSuffix(filepath.Base(files[0]), entryExt)
	legacy := filepath.Join(dir, key+".json")
	if err := os.WriteFile(legacy, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}

	r2 := tinyRunner()
	r2.CacheDir = dir
	if got := r2.Fig2().String(); got != want {
		t.Errorf("table differs with a .json entry in place of a record:\n%s\n---\n%s", got, want)
	}
	if got := r2.Executed(); got != 1 {
		t.Errorf("executed %d simulations with one run stored as .json only, want 1", got)
	}
	rep, err := VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Entries != 2 || rep.Mismatched != 0 {
		t.Errorf("verify: %+v, want the .json entry skipped and 2 records", rep)
	}

	// The .json file is the newest in the directory and still goes first.
	future := time.Now().Add(time.Hour)
	if err := os.Chtimes(legacy, future, future); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, f := range append(entryFiles(t, dir), legacy) {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	removed, _, err := EvictCache(dir, total-1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); removed != 1 || !os.IsNotExist(err) {
		t.Errorf("evicted %d files, .json entry gone=%v; want exactly that one", removed, os.IsNotExist(err))
	}
}

// TestEntryUnderAnotherKeyIsAMiss files one run's whole, current record
// under the key of another run. A loader serves a record only when its
// options are the bytes its key came from, so that run is simulated again
// rather than answered with the other run's result.
func TestEntryUnderAnotherKeyIsAMiss(t *testing.T) {
	dir := t.TempDir()
	r1 := tinyRunner()
	r1.CacheDir = dir
	want := r1.Fig2().String()
	files := entryFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("%d cache files, want 2", len(files))
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[1], b, 0o644); err != nil {
		t.Fatal(err)
	}
	other, _ := readEntry(t, files[0])

	r2 := tinyRunner()
	r2.CacheDir = dir
	if got := r2.Fig2().String(); got != want {
		t.Errorf("table served with a record filed under another run's key:\n%s\n---\n%s", got, want)
	}
	if got := r2.Executed(); got != 1 {
		t.Errorf("executed %d simulations, want 1: the run whose key holds another run's record", got)
	}
	if opts, _ := readEntry(t, files[1]); bytes.Equal(opts, other) {
		t.Error("the mis-filed record was not replaced by the run's own")
	}
}

// TestLoaderRefusesInexactRecords reads records through one reused buffer,
// as a loader does: a long record, a shorter one, then damaged copies. A
// one-byte edit anywhere in the stored options, a truncated record and a
// record with one byte more are each a miss, and no read sees what the
// previous one left in the buffer.
func TestLoaderRefusesInexactRecords(t *testing.T) {
	dir := t.TempDir()
	r1 := tinyRunner()
	r1.CacheDir = dir
	r1.Fig2()
	c := newDiskCache(dir)
	type stored struct {
		key  string
		opts []byte
		res  engine.Result
	}
	var runs []stored
	for _, f := range entryFiles(t, dir) {
		opts, res := readEntry(t, f)
		runs = append(runs, stored{strings.TrimSuffix(filepath.Base(f), entryExt), opts, res})
	}
	// The longer record first, so the buffer shrinks under the second.
	long := appendEntry(nil, runs[0].opts, runs[0].res)
	if short := appendEntry(nil, runs[1].opts, runs[1].res); len(short) > len(long) {
		runs[0], runs[1] = runs[1], runs[0]
	}
	var buf bytes.Buffer
	for _, s := range runs {
		if res, ok := c.loadInto(&buf, s.key, s.opts); !ok || !reflect.DeepEqual(res, s.res) {
			t.Errorf("record read through a reused buffer: ok=%v, result %+v, want %+v", ok, res, s.res)
		}
	}

	s := runs[0]
	whole := appendEntry(nil, s.opts, s.res)
	at := bytes.Index(whole, s.opts)
	damaged := map[string][]byte{
		"truncated": whole[:len(whole)-1],
		"trailing":  append(slices.Clip(whole), 0),
	}
	for i := range s.opts {
		b := slices.Clone(whole)
		b[at+i] ^= 0x01
		damaged["options byte "+strconv.Itoa(i)] = b
	}
	path := c.path(s.key)
	for name, b := range damaged {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, ok := c.loadInto(&buf, s.key, s.opts); ok {
			t.Errorf("%s: served %+v", name, res)
		}
	}
}

// TestConcurrentStoreOfOneKey shares one CacheDir between two Runners — two
// processes, as far as the directory can tell — that both execute and store
// the same simulation at once. Each store goes through its own temp file, so
// whichever rename lands last leaves one whole entry and no temp behind; a
// fixed temp name let the two writes interleave into one file. A leftover
// temp from a killed writer is never mistaken for an entry.
func TestConcurrentStoreOfOneKey(t *testing.T) {
	dir := t.TempDir()
	o := engine.DefaultOptions("416.gamess")
	o.Instructions = 5_000
	key := OptionsHash(o)
	_, opts := runKey(o)
	leftover := filepath.Join(dir, key+entryExt+".tmp")
	writeEntry(t, leftover, resultCacheVersion, opts, engine.Result{IPC: 99})

	const rounds = 8
	for round := 0; round < rounds; round++ {
		if err := os.Remove(filepath.Join(dir, key+entryExt)); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < 2; i++ {
			r := tinyRunner()
			r.CacheDir = dir
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := r.RunJobs([]engine.Options{o}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		res, ok := newDiskCache(dir).loadInto(new(bytes.Buffer), key, opts)
		if !ok || res.IPC == 99 || res.Instructions == 0 {
			t.Fatalf("round %d: entry unreadable or taken from the leftover temp (ok=%v, %+v)", round, ok, res)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 {
		t.Errorf("cache dir holds %d files, want the entry and the planted leftover only", len(files))
	}
	rep, err := VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 1 || rep.Skipped != 0 {
		t.Errorf("verify: %+v, want exactly one entry and the leftover temp not looked at", rep)
	}
}

func TestEvictCacheRemovesOldestPastBudget(t *testing.T) {
	dir := t.TempDir()
	// Three entries of ~1KB each, with distinct mtimes, oldest first.
	payload := make([]byte, 1024)
	for i, name := range []string{"old", "mid", "new"} {
		path := filepath.Join(dir, name+entryExt)
		if err := os.WriteFile(path, payload, 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	removed, freed, err := EvictCache(dir, 2*1024+512)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed != 1024 {
		t.Errorf("removed %d entries / %d bytes, want 1 / 1024", removed, freed)
	}
	if _, err := os.Stat(filepath.Join(dir, "old"+entryExt)); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
	for _, name := range []string{"mid", "new"} {
		if _, err := os.Stat(filepath.Join(dir, name+entryExt)); err != nil {
			t.Errorf("%s entry evicted, should have been kept", name)
		}
	}
	// Zero budget disables eviction entirely.
	if removed, _, err := EvictCache(dir, 0); err != nil || removed != 0 {
		t.Errorf("disabled eviction removed %d (err %v)", removed, err)
	}

	// Warmup snapshots count against the same budget and age out the same
	// way: an old 4KB snapshot is evicted before the newer result entries,
	// a fresh one outlives them.
	ckptDir := filepath.Join(dir, checkpointSubdir)
	if err := os.Mkdir(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, age := range map[string]time.Duration{"stale": 4 * time.Hour, "fresh": 0} {
		path := filepath.Join(ckptDir, name+".ckpt")
		if err := os.WriteFile(path, make([]byte, 4096), 0o644); err != nil {
			t.Fatal(err)
		}
		mtime := time.Now().Add(-age)
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
	}
	// 2KB of entries + 8KB of snapshots against a 5KB budget: the stale
	// snapshot and the older entry go, in that order.
	removed, freed, err = EvictCache(dir, 5*1024)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || freed != 4096+1024 {
		t.Errorf("removed %d files / %d bytes, want 2 / %d", removed, freed, 4096+1024)
	}
	for path, wantKept := range map[string]bool{
		filepath.Join(ckptDir, "stale.ckpt"): false,
		filepath.Join(dir, "mid"+entryExt):   false,
		filepath.Join(dir, "new"+entryExt):   true,
		filepath.Join(ckptDir, "fresh.ckpt"): true,
	} {
		if _, err := os.Stat(path); (err == nil) != wantKept {
			t.Errorf("%s kept=%v, want %v", path, err == nil, wantKept)
		}
	}
}
