// Package spec is the one spec grammar and the one registry behind both
// axes of an experiment cell: which prefetcher (internal/prefetch) and which
// workload (internal/trace). A Spec names a registered implementation plus
// free-form string parameters that the implementation's Build function
// parses and validates, so a new prefetcher or generator is a new
// registration, never an engine edit.
//
// The canonical string form is
//
//	name[:key=value[,key=value]...]
//
// e.g. "bo:badscore=5,rr=64", "gups:footprint=64mb". Keys are lowercase
// [a-z0-9_-]; values may not contain ',', '=', ':' or whitespace (lists use
// '+' as separator, e.g. "offsets=1+2+8"). What a name may look like and
// which further value characters are reserved is the axis' Grammar. String
// renders keys sorted, so the canonical form — and anything hashed from it —
// is deterministic.
package spec

import (
	"fmt"
	"sort"
	"strings"
)

// Spec is a self-describing configuration: a registered name plus string
// parameters.
type Spec struct {
	Name   string            `json:"name"`
	Params map[string]string `json:"params,omitempty"`
}

// String renders the canonical form: parameters sorted by key.
// Grammar.Parse(s.String()) reproduces s exactly for any canonical s.
func (s Spec) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	for i, key := range sortedKeys(s.Params) {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(s.Params[key])
	}
	return b.String()
}

// IsZero reports whether the spec is unset (no name).
func (s Spec) IsZero() bool { return s.Name == "" }

// Equal reports whether two specs render identically.
func (s Spec) Equal(o Spec) bool { return s.String() == o.String() }

// Get returns the raw value of one parameter.
func (s Spec) Get(key string) (string, bool) {
	v, ok := s.Params[key]
	return v, ok
}

// With returns a copy of the spec with one parameter set; the receiver is
// not modified. It is the programmatic way to build sweep variants:
// bo.With("badscore", "5").
func (s Spec) With(key, value string) Spec {
	out := Spec{Name: s.Name, Params: make(map[string]string, len(s.Params)+1)}
	for k, v := range s.Params {
		out.Params[k] = v
	}
	out.Params[strings.ToLower(key)] = value
	return out
}

// Without returns a copy of the spec with one parameter removed.
func (s Spec) Without(key string) Spec {
	out := Spec{Name: s.Name}
	for k, v := range s.Params {
		if k == key {
			continue
		}
		if out.Params == nil {
			out.Params = make(map[string]string, len(s.Params))
		}
		out.Params[k] = v
	}
	return out
}

// Grammar is what differs between the axes' spec syntaxes.
type Grammar struct {
	// Pkg prefixes every error the grammar and a Registry on it report.
	Pkg string
	// FoldNames selects the name alphabet: lowercase [a-z0-9_-] with input
	// folded to it, or — when false — case-sensitive [A-Za-z0-9._-] (the
	// SPEC stand-ins keep their published spellings, "459.GemsFDTD").
	FoldNames bool
	// Reserved lists the value characters refused on top of ',', '=', ':'
	// and whitespace, because the axis gives them a meaning of its own.
	Reserved string
}

// Parse parses the canonical string form. The result is syntactically
// canonical (folded name, lowercased keys, no empty map); whether the name
// is registered and the parameters valid is a Registry's business.
func (g Grammar) Parse(in string) (Spec, error) {
	in = strings.TrimSpace(in)
	name, rest, hasParams := strings.Cut(in, ":")
	name = g.fold(strings.TrimSpace(name))
	if err := g.checkName(name); err != nil {
		return Spec{}, fmt.Errorf("%s: bad spec name %q: %v", g.Pkg, name, err)
	}
	sp := Spec{Name: name}
	if !hasParams {
		return sp, nil
	}
	sp.Params = make(map[string]string)
	for _, kv := range strings.Split(rest, ",") {
		key, value, ok := strings.Cut(kv, "=")
		key = strings.ToLower(strings.TrimSpace(key))
		value = strings.TrimSpace(value)
		if !ok || key == "" || value == "" {
			return Spec{}, fmt.Errorf("%s: bad spec parameter %q in %q (want key=value)", g.Pkg, kv, in)
		}
		if err := checkToken(key, false); err != nil {
			return Spec{}, fmt.Errorf("%s: bad parameter key %q: %v", g.Pkg, key, err)
		}
		if err := g.checkValue(value); err != nil {
			return Spec{}, fmt.Errorf("%s: bad value %q for %q: %v", g.Pkg, value, key, err)
		}
		if _, dup := sp.Params[key]; dup {
			return Spec{}, fmt.Errorf("%s: duplicate parameter %q in %q", g.Pkg, key, in)
		}
		sp.Params[key] = value
	}
	return sp, nil
}

// MustParse is Parse that panics on error, for tests and examples.
func (g Grammar) MustParse(in string) Spec {
	sp, err := g.Parse(in)
	if err != nil {
		panic(err)
	}
	return sp
}

func (g Grammar) fold(name string) string {
	if g.FoldNames {
		return strings.ToLower(name)
	}
	return name
}

// canonical returns s the way Parse would have produced it — name folded,
// keys lowercased, a nil map when empty — without checking any of it. The
// result shares no state with s. Specs built as struct literals reach the
// registry unparsed; this is where they are folded.
func (g Grammar) canonical(s Spec) Spec {
	out := Spec{Name: g.fold(s.Name)}
	if len(s.Params) == 0 {
		return out
	}
	out.Params = make(map[string]string, len(s.Params))
	for k, v := range s.Params {
		out.Params[strings.ToLower(k)] = v
	}
	return out
}

func (g Grammar) checkName(name string) error { return checkToken(name, !g.FoldNames) }

// checkToken validates a name or key: non-empty [a-z0-9_-], plus [A-Z.]
// when wide.
func checkToken(t string, wide bool) error {
	if t == "" {
		return fmt.Errorf("empty")
	}
	for _, r := range t {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_', r == '-':
		case wide && (r >= 'A' && r <= 'Z' || r == '.'):
		default:
			return fmt.Errorf("character %q not allowed", r)
		}
	}
	return nil
}

// checkValue validates a (non-empty) parameter value: printable, and free
// of the spec syntax characters so String() always re-parses.
func (g Grammar) checkValue(v string) error {
	for _, r := range v {
		switch {
		case r == ',' || r == '=' || r == ':' || strings.ContainsRune(g.Reserved, r):
			return fmt.Errorf("character %q not allowed", r)
		case r <= ' ' || r == 0x7f:
			return fmt.Errorf("whitespace/control characters not allowed")
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
