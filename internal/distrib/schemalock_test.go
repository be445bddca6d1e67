package distrib

import (
	"testing"

	"bopsim/internal/schemalock"
)

// TestSchemaLock pins the envelope — the three structs declared here — to
// ProtocolVersion: a worker refuses a coordinator by version, so a body
// that moves without the constant is half-decoded by the other side. The
// record a worker answers /v1/run with is engine.ModelVersion's, in
// engine's model.lock. After a reviewed change, bump the constant, then
// `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	if err := schemalock.Check("testdata/schema.lock", "protocol-version", ProtocolVersion, schemalock.Render(Job{}, Info{}, ErrorBody{})); err != nil {
		t.Fatal(err)
	}
}
