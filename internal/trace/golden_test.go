package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"
)

// The golden determinism suite: engine's model lock records each default
// instruction stream as a "stream" line, the SHA-256 of its first 10,000
// instructions as a trace file records them, so a generator refactor (or an
// innocent-looking parameter plumbing change) can never silently shift the
// streams behind published figures. engine's TestSchemaLock writes and checks
// the whole lock; these tests check the lines of the generators this package
// registers, here, by name. A stream that moves on purpose comes with an
// engine.ModelVersion bump and `make schema-lock`.
const modelLock = "../engine/testdata/model.lock"

// lockedStreams returns the model lock's stream lines, label -> digest.
func lockedStreams(t *testing.T) map[string]string {
	t.Helper()
	lock, err := os.ReadFile(modelLock)
	if err != nil {
		t.Fatal(err)
	}
	streams := make(map[string]string)
	for _, line := range strings.Split(string(lock), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "stream" {
			streams[f[1]] = f[2]
		}
	}
	return streams
}

// streamDigest hashes the first 10,000 instructions of generator name's
// default stream at seed, as engine's lock test does.
func streamDigest(t *testing.T, name string, seed uint64) string {
	t.Helper()
	g, err := NewGenerator(Spec{Name: name}, seed)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h := sha256.New()
	if err := WriteTrace(h, g, 10_000); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStreams(t *testing.T) {
	locked := lockedStreams(t)
	for _, name := range Names() {
		if _, err := Normalize(Spec{Name: name}); err != nil {
			// Not buildable with defaults ("file" needs a path): no default
			// stream to pin, but it must not be silently skippable either.
			if name != "file" {
				t.Errorf("%s: not buildable with defaults and not an expected exception: %v", name, err)
			}
			continue
		}
		if got, want := streamDigest(t, name, 1), locked[name]; got != want {
			t.Errorf("%s: default stream %s, %s pins %q", name, got, modelLock, want)
		}
	}
}

// TestGoldenSatelliteSeedDerivation checks the satellite-core thrasher stream
// (seed 1 + 7919, the core-1 derived seed): the per-core seeding rule is
// part of what keeps legacy multi-core runs byte-identical.
func TestGoldenSatelliteSeedDerivation(t *testing.T) {
	got, want := streamDigest(t, "microthrash", 1+7919), lockedStreams(t)["microthrash-core1"]
	if got != want {
		t.Errorf("core-1 thrasher stream %s, %s pins %q", got, modelLock, want)
	}
}
