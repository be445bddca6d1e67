package distrib

import (
	"testing"

	"bopsim/internal/experiments"
	"bopsim/internal/schemalock"
)

// TestSchemaLock pins the wire bodies — the three structs declared here and
// the experiments.CacheEntry a worker answers /v1/run with — to
// ProtocolVersion: a worker refuses a coordinator by version, so a body
// that moves without the constant is half-decoded by the other side. After
// a reviewed change, bump the constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	if err := schemalock.Check("testdata/schema.lock", "protocol-version", ProtocolVersion, Job{}, Info{}, ErrorBody{}, experiments.CacheEntry{}); err != nil {
		t.Fatal(err)
	}
}
