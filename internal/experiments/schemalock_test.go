package experiments

import (
	"testing"

	"bopsim/internal/schemalock"
)

// TestSchemaLock pins what a result carries — CacheEntry, the wire form,
// with its Options, its Result and every stats struct inside them — to
// resultCacheVersion. It is the gate for any Result change: a disk record
// (entry.go) is positional and names no field, so a record written before
// a Result field moved would decode into the wrong fields if the version
// stayed; only the version refuses it. After a reviewed change, extend the
// record codec, bump the constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	if err := schemalock.Check("testdata/schema.lock", "result-cache-version", resultCacheVersion, CacheEntry{}); err != nil {
		t.Fatal(err)
	}
}
