package statecodec_test

import (
	"testing"

	"bopsim/internal/analysis/analysistest"
	"bopsim/internal/analysis/statecodec"
)

// TestStatecodec covers the synthetic classification matrix
// (internal/cache) and the fix-forward regression fixture: a trimmed
// stride prefetcher with its filter-age counters deliberately left out of
// its mirror-struct codec (internal/stride).
func TestStatecodec(t *testing.T) {
	analysistest.Run(t, "testdata", statecodec.Analyzer)
}
