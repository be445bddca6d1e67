// Package schemalock pins serialized layouts to the version constants governing
// them: a test beside each constant checks a golden lock of what its roots reach.
package schemalock

import (
	"flag"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
)

var write = flag.Bool("write-schema-lock", false, "regenerate testdata/schema.lock (what `make schema-lock` passes)")

type closure map[string]string // "pkgpath.Type" -> field lines

// Render returns one "[pkgpath.Type]" section per named struct of this
// module reachable from the types of roots, sorted by key: its exported
// fields (what gob and encoding/json see) as "Name type `tag`" lines.
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

// Check compares the lock at path with "<key> <version>" and Render(roots...): drift, a
// stale or missing section, a header disagreeing with the constant are errors. Under
// -write-schema-lock it rewrites the file instead, unless the old one records the same version.
func Check(path, key string, version int, roots ...any) error {
	header := fmt.Sprintf("# Serialized layouts governed by %s; `make schema-lock` regenerates.\n%[1]s %d\n", key, version)
	want := header + Render(roots...)
	old, _ := os.ReadFile(path) // a missing lock reads as an empty one
	if string(old) == want {
		return nil
	}
	if *write && !strings.HasPrefix(string(old), header) {
		return os.WriteFile(path, []byte(want), 0o644)
	}
	i, o, w := 0, strings.Split(string(old), "\n"), strings.Split(want, "\n")
	for i < len(o)-1 && i < len(w)-1 && o[i] == w[i] {
		i++
	}
	return fmt.Errorf("%s differs from the source layouts at line %d (lock %q, source %q): bump %s, then run `make schema-lock`, which refuses to write over a lock that already records version %d", path, i+1, o[i], w[i], key, version)
}
