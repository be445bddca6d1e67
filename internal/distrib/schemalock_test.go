package distrib

import (
	"os"
	"strings"
	"testing"

	"bopsim/internal/schemalock"
)

// TestSchemaLock checks that the envelope — the three structs declared here,
// and every struct they reach — is pinned, section for section, by engine's
// model.lock: engine.ModelVersion governs what distrib sends, and a worker
// refuses a job by that version alone, so a body that moves without the lock
// would be half-decoded by the other side. engine's TestSchemaLock owns the
// lock; after a reviewed change, bump the constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	lock, err := os.ReadFile("../engine/testdata/model.lock")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]bool{}
	for _, s := range strings.Split(string(lock), "\n[") {
		pinned[s] = true
	}
	for _, s := range strings.Split(schemalock.Render(Job{}, Info{}, ErrorBody{}), "\n[")[1:] {
		if !pinned[s] {
			t.Errorf("model.lock does not pin this envelope section as the source declares it: bump engine.ModelVersion, then run `make schema-lock`\n[%s", s)
		}
	}
}
