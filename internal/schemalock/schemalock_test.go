package schemalock

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bopsim/internal/mem"
	"bopsim/internal/spec"
)

type kind uint8

type leaf struct {
	N      int
	hidden int
}

type node struct {
	Kind     kind
	Page     mem.PageSize
	Bytes    []byte
	Next     *node
	Leaves   [2]leaf
	ByName   map[string]leaf
	Spec     spec.Spec `json:"spec,omitempty"`
	At       time.Time
	Inline   struct{ A, B int }
	Any      any
	skipped  leaf
	Embedded []struct {
		L leaf `json:"l"`
	}
}

// TestRender walks every spelling rule once: bare names inside the home
// package, qualified names and a section of their own for other module
// packages, no section for a standard-library struct, a representation on
// named non-structs, unexported fields dropped, tags kept, and a type that
// reaches itself.
func TestRender(t *testing.T) {
	want := strings.Join([]string{
		"",
		"[bopsim/internal/schemalock.leaf]",
		"N int",
		"",
		"[bopsim/internal/schemalock.node]",
		"Kind kind=uint8",
		"Page bopsim/internal/mem.PageSize=uint64",
		"Bytes []uint8",
		"Next *node",
		"Leaves [2]leaf",
		"ByName map[string]leaf",
		"Spec bopsim/internal/spec.Spec `json:\"spec,omitempty\"`",
		"At time.Time",
		"Inline struct{A int; B int}",
		"Any interface",
		"Embedded []struct{L leaf `json:\"l\"`}",
		"",
		"[bopsim/internal/spec.Spec]",
		"Name string `json:\"name\"`",
		"Params map[string]string `json:\"params,omitempty\"`",
		"",
	}, "\n")
	root := node{skipped: leaf{hidden: 1}} // set, and still not rendered
	if got := Render(root); got != want {
		t.Errorf("Render(node{}):\n%s\nwant:\n%s", got, want)
	}
	if both := Render(leaf{}, node{}, &node{}); both != want {
		t.Errorf("overlapping roots are not one closure:\n%s", both)
	}
}

type v1 struct {
	Version int
	Cycles  uint64
}

type v2 struct {
	Version int
	Cycles  uint64
	Extra   bool
}

func lockFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.lock")
	if content != "" {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func setWrite(t *testing.T, on bool) {
	t.Helper()
	prev := *write
	*write = on
	t.Cleanup(func() { *write = prev })
}

// TestCheck pits a lock cut from a slightly different tree against the
// source: every way the two can disagree is an error that names each line
// only one side has, and none of them touches the file.
func TestCheck(t *testing.T) {
	setWrite(t, false)
	good := "# Governed by model-version; `make schema-lock` regenerates.\nmodel-version 3\n" + Render(v1{})
	cases := []struct {
		name, lock string
		want       []string // the lines the error names, in order
	}{
		{"match", good, nil},
		{"drifted field", strings.Replace(good, "Cycles uint64", "Cycles uint32", 1),
			[]string{`lock line 6: "Cycles uint32"`, `source line 6: "Cycles uint64"`}},
		{"two drifted fields", strings.Replace(strings.Replace(good, "Version int", "Version int8", 1), "Cycles uint64", "Cycles uint32", 1),
			[]string{`lock line 5: "Version int8"`, `lock line 6: "Cycles uint32"`, `source line 5: "Version int"`, `source line 6: "Cycles uint64"`}},
		{"missing field", strings.Replace(good, "Cycles uint64\n", "", 1), []string{`source line 6: "Cycles uint64"`}},
		{"stale section", good + "\n[bopsim/internal/schemalock.gone]\nX int\n",
			[]string{`lock line 7: ""`, `lock line 8: "[bopsim/internal/schemalock.gone]"`, `lock line 9: "X int"`}},
		{"missing section", strings.Replace(good, Render(v1{}), "", 1),
			[]string{`source line 3: ""`, `source line 4: "[bopsim/internal/schemalock.v1]"`, `source line 5: "Version int"`, `source line 6: "Cycles uint64"`}},
		{"header behind the constant", strings.Replace(good, "model-version 3", "model-version 2", 1),
			[]string{`lock line 2: "model-version 2"`, `source line 2: "model-version 3"`}},
		{"no lock", "", []string{`source line 1: "# Governed by model-version; ` + "`make schema-lock`" + ` regenerates."`,
			`source line 2: "model-version 3"`, `source line 3: ""`, `source line 4: "[bopsim/internal/schemalock.v1]"`,
			`source line 5: "Version int"`, `source line 6: "Cycles uint64"`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := lockFile(t, c.lock)
			err := Check(path, 3, Render(v1{}))
			if c.want == nil {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), "make schema-lock") {
				t.Fatalf("got %v, want an error naming the fix", err)
			}
			got := strings.Split(err.Error(), "\n")[1:]
			for i := range got {
				got[i] = strings.TrimSpace(got[i])
			}
			if strings.Join(got, "\n") != strings.Join(c.want, "\n") {
				t.Errorf("the error names\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(c.want, "\n"))
			}
			if now, _ := os.ReadFile(path); string(now) != c.lock {
				t.Errorf("a failed check rewrote the lock:\n%s", now)
			}
		})
	}
}

// TestCheckRefusesUnbumpedRegen pins the generator half: a lock whose
// layouts changed while its version constant stayed put cannot be
// regenerated over; bumping the constant unblocks the same regeneration.
func TestCheckRefusesUnbumpedRegen(t *testing.T) {
	setWrite(t, true)
	path := lockFile(t, "")
	if err := Check(path, 3, Render(v1{})); err != nil {
		t.Fatalf("first generation refused: %v", err)
	}
	first, _ := os.ReadFile(path)
	if err := Check(path, 3, Render(v1{})); err != nil {
		t.Errorf("identical regeneration refused: %v", err)
	}

	err := Check(path, 3, Render(v2{}))
	if err == nil || !strings.Contains(err.Error(), "bump model-version") || !strings.Contains(err.Error(), "refuses") {
		t.Errorf("regeneration accepted without a version bump: %v", err)
	}
	if now, _ := os.ReadFile(path); string(now) != string(first) {
		t.Errorf("a refused regeneration rewrote the lock:\n%s", now)
	}

	if err := Check(path, 4, Render(v2{})); err != nil {
		t.Fatalf("regeneration refused after the bump: %v", err)
	}
	setWrite(t, false)
	if err := Check(path, 4, Render(v2{})); err != nil {
		t.Errorf("the regenerated lock does not check: %v", err)
	}
}
