package engine

import (
	"testing"

	"bopsim/internal/schemalock"
)

// TestSchemaLock pins what a checkpoint is made of — the gob payload and
// the warmup signature it is shared by — to SnapshotVersion: a Restore
// refuses by version, so a layout that moves without the constant decodes
// an older snapshot into garbage instead. After a reviewed change, bump the
// constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	if err := schemalock.Check("testdata/schema.lock", "snapshot-version", SnapshotVersion, snapshot{}, warmupSig{}); err != nil {
		t.Fatal(err)
	}
}
