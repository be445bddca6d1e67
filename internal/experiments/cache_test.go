package experiments

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"bopsim/internal/engine"
)

// TestSchemaBumpInvalidates pins what a resultCacheVersion bump costs: an
// entry stamped with an older version is never served — even filed under
// the key a current run computes — is counted skipped by VerifyCache, and
// is what EvictCache removes first, being older than every current entry.
func TestSchemaBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	r1 := tinyRunner()
	r1.CacheDir = dir
	r1.Fig2() // 2 entries
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("%d cache files, want 2", len(files))
	}

	// Restamp one entry as the previous schema, with a result that would
	// show if it were served, and file a copy under a key no run computes.
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var e CacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	e.Version = resultCacheVersion - 1
	e.Result.IPC = 99
	old, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	unreachable := filepath.Join(dir, strings.Repeat("0", 64)+".json")
	past := time.Now().Add(-time.Hour)
	for _, path := range []string{files[0], unreachable} {
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
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
	key := strings.TrimSuffix(filepath.Base(files[0]), ".json")
	if res, ok := (diskCache{dir}).load(key); !ok || res.IPC == 99 {
		t.Errorf("old-version entry not rewritten at the current version (ok=%v, IPC=%v)", ok, res.IPC)
	}

	var total int64
	all, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, f := range all {
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
	leftover := filepath.Join(dir, key+".json.tmp")
	if err := os.WriteFile(leftover, []byte(`{"version":3,"result":{"IPC":99}}`), 0o644); err != nil {
		t.Fatal(err)
	}

	const rounds = 8
	for round := 0; round < rounds; round++ {
		if err := os.Remove(filepath.Join(dir, key+".json")); err != nil && !os.IsNotExist(err) {
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
		res, ok := (diskCache{dir}).load(key)
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
		path := filepath.Join(dir, name+".json")
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
	if _, err := os.Stat(filepath.Join(dir, "old.json")); !os.IsNotExist(err) {
		t.Error("oldest entry survived eviction")
	}
	for _, name := range []string{"mid", "new"} {
		if _, err := os.Stat(filepath.Join(dir, name+".json")); err != nil {
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
		filepath.Join(dir, "mid.json"):       false,
		filepath.Join(dir, "new.json"):       true,
		filepath.Join(ckptDir, "fresh.ckpt"): true,
	} {
		if _, err := os.Stat(path); (err == nil) != wantKept {
			t.Errorf("%s kept=%v, want %v", path, err == nil, wantKept)
		}
	}
}
