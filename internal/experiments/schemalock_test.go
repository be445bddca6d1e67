package experiments

import (
	"testing"

	"bopsim/internal/schemalock"
)

// TestSchemaLock pins the result-cache entry — the stored Options, the
// Result and every stats struct inside it — to resultCacheVersion: load
// serves an entry by version alone, so a Result field that moves without
// the constant is read out of old files as zero. After a reviewed change,
// bump the constant, then `make schema-lock`.
func TestSchemaLock(t *testing.T) {
	if err := schemalock.Check("testdata/schema.lock", "result-cache-version", resultCacheVersion, CacheEntry{}); err != nil {
		t.Fatal(err)
	}
}
