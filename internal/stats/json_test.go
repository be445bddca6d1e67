package stats

import (
	"encoding/json"
	"strings"
	"testing"

	"bopsim/internal/schemalock"
)

func TestTableJSONRoundTrip(t *testing.T) {
	tb := NewTable("Figure X", "1-core/4KB", "1-core/4MB")
	tb.AddRow("433.milc", 1.25, 1.5)
	tb.AddRow("470.lbm", 0.9, 1.1)
	tb.AddGeoMeanRow()

	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"title":"Figure X"`, `"433.milc"`, `"GM"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %s: %s", want, b)
		}
	}

	var back Table
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.String() != tb.String() {
		t.Errorf("round trip changed rendering:\n%s\n---\n%s", tb.String(), back.String())
	}
}

// TestTableJSONShape pins the field set of `experiments -json` output. No
// version constant governs it (nothing in the tree reads a figN.json back):
// a change here is a change to what downstream scripts parse, and edits the
// literal with it.
func TestTableJSONShape(t *testing.T) {
	want := strings.Join([]string{
		"",
		"[bopsim/internal/stats.tableJSON]",
		"Title string `json:\"title\"`",
		"Columns []string `json:\"columns\"`",
		"Rows []tableRowJSON `json:\"rows\"`",
		"",
		"[bopsim/internal/stats.tableRowJSON]",
		"Label string `json:\"label\"`",
		"Values []float64 `json:\"values\"`",
		"",
	}, "\n")
	if got := schemalock.Render(tableJSON{}); got != want {
		t.Errorf("table JSON layout changed:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableJSONEmptyRows(t *testing.T) {
	tb := NewTable("empty", "a")
	b, err := json.Marshal(tb)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"rows":[]`) {
		t.Errorf("empty table must encode rows as [], got %s", b)
	}
}
