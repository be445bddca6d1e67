// Package schemalock pins what engine.ModelVersion governs — serialized
// layouts, the digests of pinned runs and the rest — to that constant:
// engine's TestSchemaLock checks its golden lock, testdata/model.lock.
package schemalock

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

var write = flag.Bool("write-schema-lock", false, "regenerate the lock (what `make schema-lock` passes)")

type closure map[string]string // "pkgpath.Type" -> field lines

// Render returns one "[pkgpath.Type]" section per named struct of this
// module reachable from the types of roots, sorted by key: its exported
// fields (what encoding/json sees, and what a hand-written codec must write)
// as "Name type `tag`" lines.
func Render(roots ...any) string {
	c := closure{}
	for _, r := range roots {
		c.spell(reflect.TypeOf(r), "")
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = "\n[" + k + "]\n" + c[k]
	}
	return strings.Join(keys, "")
}

func (c closure) fields(t reflect.Type, home, end string) string {
	var b strings.Builder
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.IsExported() {
			b.WriteString(f.Name + " " + c.spell(f.Type, home))
			if f.Tag != "" {
				b.WriteString(" `" + string(f.Tag) + "`")
			}
			b.WriteString(end)
		}
	}
	return b.String()
}

// spell renders t as a field type of a struct declared in package home. A named module
// struct gets a section of its own; a named non-struct carries its representation.
func (c closure) spell(t reflect.Type, home string) string {
	name := ""
	if t.PkgPath() != "" {
		key := t.PkgPath() + "." + t.Name()
		name = strings.TrimPrefix(key, home+".") // bare inside its own package
		if t.Kind() == reflect.Struct {
			if _, seen := c[key]; !seen && strings.HasPrefix(key, "bopsim/") {
				c[key] = "" // a type may reach itself (trace.GenState.Subs)
				c[key] = c.fields(t, t.PkgPath(), "\n")
			}
			return name
		}
		name += "="
	}
	switch t.Kind() {
	case reflect.Pointer:
		return name + "*" + c.spell(t.Elem(), home)
	case reflect.Slice:
		return name + "[]" + c.spell(t.Elem(), home)
	case reflect.Array:
		return fmt.Sprintf("%s[%d]%s", name, t.Len(), c.spell(t.Elem(), home))
	case reflect.Map:
		return name + "map[" + c.spell(t.Key(), home) + "]" + c.spell(t.Elem(), home)
	case reflect.Struct:
		return "struct{" + strings.TrimSuffix(c.fields(t, home, "; "), "; ") + "}"
	}
	return name + t.Kind().String()
}

// Check compares the lock at path with "model-version <version>" and body
// (Render's sections, and whatever else the constant governs): drift, a stale or
// missing line, a header disagreeing with the constant are errors, which name every
// line the two do not share. Under -write-schema-lock it rewrites the file instead,
// unless the old one records the same version.
func Check(path string, version int, body string) error {
	header := fmt.Sprintf("# Governed by model-version; `make schema-lock` regenerates.\nmodel-version %d\n", version)
	want := header + body
	old, _ := os.ReadFile(path) // a missing lock reads as an empty one
	if string(old) == want {
		return nil
	}
	if *write && !strings.HasPrefix(string(old), header) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	return fmt.Errorf("%s differs from the source: bump model-version, then run `make schema-lock`, which refuses to write over a lock that already records version %d%s", path, version, diff(string(old), want))
}

// diff lists, in file order, the lines of lock and source that a longest
// common subsequence of the two leaves out: "lock line N" for one only the
// lock has, "source line N" for one only the source has.
func diff(lock, source string) string {
	split := func(s string) []string {
		if s == "" {
			return nil
		}
		return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
	}
	o, w := split(lock), split(source)
	// common[i][j] is the longest common subsequence of o[i:] and w[j:].
	common := make([][]int, len(o)+1)
	for i := range common {
		common[i] = make([]int, len(w)+1)
	}
	for i := len(o) - 1; i >= 0; i-- {
		for j := len(w) - 1; j >= 0; j-- {
			if o[i] == w[j] {
				common[i][j] = common[i+1][j+1] + 1
			} else {
				common[i][j] = max(common[i+1][j], common[i][j+1])
			}
		}
	}
	var b strings.Builder
	i, j := 0, 0
	for i < len(o) || j < len(w) {
		switch {
		case i < len(o) && j < len(w) && o[i] == w[j]:
			i, j = i+1, j+1
		case j == len(w) || i < len(o) && common[i+1][j] >= common[i][j+1]:
			fmt.Fprintf(&b, "\n  lock line %d: %q", i+1, o[i])
			i++
		default:
			fmt.Fprintf(&b, "\n  source line %d: %q", j+1, w[j])
			j++
		}
	}
	return b.String()
}
