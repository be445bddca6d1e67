package prefetch

import (
	"fmt"
	"strings"
)

// This file holds the contracts the adaptive meta-prefetchers (internal/duel,
// internal/adapt) build on: live parameter retuning and nested sub-specs.

// Retunable is optionally implemented by L2 prefetchers whose spec parameters
// can be changed on a live instance, between accesses, without rebuilding it.
// The phase-adaptive wrapper (internal/adapt) drives this at its window
// boundaries.
//
// Retune must be deterministic: the same call sequence on the same instance
// always leaves identical state. Changing a parameter may reset derived
// learning state (scores, cursors) — implementations document what a retune
// resets — but must never touch state the parameter does not govern. A key
// outside RetunableKeys, or a value the spec parser would reject, returns an
// error and changes nothing.
type Retunable interface {
	// RetunableKeys returns the spec parameter keys Retune accepts, sorted.
	RetunableKeys() []string
	// Retune sets one parameter to the value's spec spelling (the same
	// syntax the registry parses, e.g. "2" for degree, "1+2+8" for an
	// offset list).
	Retune(key, value string) error
}

// MetaL2 marks L2 prefetchers that delegate to nested child specs. Meta
// prefetchers refuse meta children — exactly one level of nesting, the same
// rule the trace registry's mix generator enforces — which keeps sub-spec
// quoting and set partitioning from compounding.
type MetaL2 interface {
	// MetaL2 is a marker; it reports nothing and must be side-effect free.
	MetaL2()
}

// Sub-spec quoting. A spec value may not contain ':', '=' or ',' (see
// internal/spec), so a child spec cannot be embedded verbatim in a parent
// parameter like duel's a=/b=. QuoteSubSpec substitutes each reserved
// character with a legal stand-in and ParseSubSpec reverses it:
//
//	':' <-> '.'    '=' <-> '~'    ',' <-> ';'
//
// so "multi:minscore=6,offsets=1+2+8" is spelled
// "multi.minscore~6;offsets~1+2+8" inside a parent spec, e.g.
// "duel:a=bo.degree~2,b=multi.minscore~6". The substitution is reversible
// only because QuoteSubSpec rejects child specs whose canonical form already
// uses a stand-in character; in-tree parameter values are integers, booleans
// and '+'-separated integer lists, so this never triggers.

var (
	quoteSubSpec   = strings.NewReplacer(":", ".", "=", "~", ",", ";")
	unquoteSubSpec = strings.NewReplacer(".", ":", "~", "=", ";", ",")
)

// QuoteSubSpec renders a child spec in the quoted form accepted as a parent
// spec parameter value. The spec is rendered canonically first, so equal
// specs quote identically.
func QuoteSubSpec(s Spec) (string, error) {
	str := s.String()
	if strings.ContainsAny(str, ".~;") {
		return "", fmt.Errorf("prefetch: sub-spec %q cannot be quoted: it contains a stand-in character ('.', '~' or ';')", str)
	}
	return quoteSubSpec.Replace(str), nil
}

// ParseSubSpec parses a quoted child spec from a parent parameter value. It
// accepts the unquoted form too when the child takes no parameters (a bare
// name like "bo" contains nothing to unquote).
func ParseSubSpec(v string) (Spec, error) {
	sp, err := ParseSpec(unquoteSubSpec.Replace(v))
	if err != nil {
		return Spec{}, fmt.Errorf("prefetch: sub-spec %q: %w", v, err)
	}
	return sp, nil
}

// CanonicalizeSubSpecs returns a Definition.Canonicalize hook that rewrites
// the named keys' values through ParseSubSpec -> NormalizeL2 -> QuoteSubSpec,
// leaving every other key untouched. Registered by the meta-prefetchers for
// their child-spec parameters, so equivalent spellings of a nested spec
// collapse to one canonical parent form.
func CanonicalizeSubSpecs(keys ...string) func(params map[string]string) error {
	return func(params map[string]string) error {
		for _, key := range keys {
			value, ok := params[key]
			if !ok {
				continue
			}
			sp, err := ParseSubSpec(value)
			if err == nil {
				sp, err = NormalizeL2(sp)
			}
			if err == nil {
				value, err = QuoteSubSpec(sp)
			}
			if err != nil {
				return fmt.Errorf("%s=%q: %v", key, params[key], err)
			}
			params[key] = value
		}
		return nil
	}
}
