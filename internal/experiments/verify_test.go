package experiments

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bopsim/internal/engine"
)

// TestVerifyCacheCleanAndTampered is the -verify contract: a freshly
// written cache verifies clean, a tampered result is caught, and corrupt
// files are skipped rather than trusted or fatal.
func TestVerifyCacheCleanAndTampered(t *testing.T) {
	dir := t.TempDir()
	r := tinyRunner()
	r.CacheDir = dir
	r.Fig2() // 2 benchmarks x 1 config = 2 entries
	executed := int(r.Executed())

	rep, err := VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != executed || rep.Checked != executed || rep.Mismatched != 0 || rep.Skipped != 0 {
		t.Fatalf("clean cache: %+v, want %d entries all checked, none mismatched", rep, executed)
	}

	// Tamper with one stored result (keeping the schema version valid):
	// verification must flag exactly that entry.
	files := entryFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no cache files")
	}
	opts, res := readEntry(t, files[0])
	res.IPC += 0.25
	writeEntry(t, files[0], engine.ModelVersion, opts, res)

	rep, err = VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mismatched != 1 {
		t.Errorf("tampered cache: %d mismatches, want 1 (%+v)", rep.Mismatched, rep)
	}

	// A corrupt file is skipped, not a mismatch.
	if err := os.WriteFile(filepath.Join(dir, "bogus"+entryExt), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 {
		t.Errorf("corrupt file: %d skipped, want 1 (%+v)", rep.Skipped, rep)
	}

	// An entry filed under a key its options no longer hash to (e.g. a
	// trace edited in place) is unreachable by any lookup: orphaned, not
	// a trust failure.
	if err := os.Rename(files[1], filepath.Join(dir, strings.Repeat("f", 64)+entryExt)); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyCache(dir, 0, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Orphaned != 1 {
		t.Errorf("mis-keyed entry: %d orphaned, want 1 (%+v)", rep.Orphaned, rep)
	}
}

// TestVerifyCacheSampling checks the sample bound is honoured and that
// sampling is deterministic in the seed.
func TestVerifyCacheSampling(t *testing.T) {
	dir := t.TempDir()
	r := tinyRunner()
	r.CacheDir = dir
	r.Fig6() // 4 entries
	if r.Executed() < 2 {
		t.Fatalf("expected several cache entries, got %d", r.Executed())
	}

	rep, err := VerifyCache(dir, 1, 42, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked != 1 {
		t.Errorf("checked %d entries with sample=1, want 1", rep.Checked)
	}
	if rep.Entries != int(r.Executed()) {
		t.Errorf("report says %d entries, cache has %d", rep.Entries, r.Executed())
	}
}
