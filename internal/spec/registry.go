package spec

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
)

// Definition describes one registered implementation. B is the axis' Build
// function type.
type Definition[B any] struct {
	// Help is a one-line description for -list-pf / -list-workloads.
	Help string
	// Defaults enumerates every accepted parameter key with the canonical
	// rendering of its default value (the empty string marks a parameter
	// with no default, like file's path); an empty map means "accepts no
	// parameters". A spec naming a key outside this set is rejected, and
	// Normalize drops parameters spelled with their default value, so
	// equivalent specs share one canonical form (and one cache key).
	Defaults map[string]string
	// Build constructs the implementation. Keys have been validated against
	// Defaults already; Build parses the values (see Values) and may reject
	// semantically invalid combinations.
	Build B
	// Validate, when non-nil, replaces the check-by-building in Normalize.
	// Implementations whose construction has side effects or depends on
	// anything outside the spec (file opens and parses a whole trace) must
	// set it so normalization stays pure; it must reject exactly what Build
	// rejects. Cost alone is no reason: Normalize checks a spec once per
	// process (see the memo), so a table-allocating Build is paid once.
	Validate func(v Values) error
	// SizeKeys lists the parameter keys whose values are byte sizes.
	// Normalize re-renders them canonically (FormatSize of ParseSize), so
	// "128MB", "134217728" and "128mb" are one canonical form — and one
	// cache key, one warmup signature.
	SizeKeys []string
	// IntKeys lists the parameter keys whose values are plain integers or
	// '+'-separated integer lists; Normalize re-renders them canonically
	// too, so "064" and "64" are one spelling of one stride and "03+1" one
	// spelling of weights "3+1". String-typed keys (gens, path, sha, a
	// quoted sub-spec) must not appear in either list — a digits-only name
	// or hash would be corrupted by numeric re-rendering.
	IntKeys []string
	// Canonicalize, when non-nil, rewrites the validated, re-rendered
	// parameter map in place before Normalize compares it against Defaults.
	// It handles what the per-key string comparison cannot see: the
	// meta-prefetchers normalize their quoted child specs (so
	// "duel:b=multi.maxissue~4" and "duel" share one canonical form), mix
	// deletes an explicitly-spelled all-ones weights list.
	Canonicalize func(params map[string]string) error
}

// Registry holds one axis' definitions. Implementations register from init
// functions; everything above the registry — the engine, the experiment
// scheduler, the CLIs — constructs from Specs only, so adding a registration
// never touches those layers.
type Registry[B any] struct {
	grammar Grammar
	kind    string
	check   func(build B, v Values) error

	mu   sync.RWMutex
	defs map[string]Definition[B]
	// memo remembers Normalize's successes, keyed by the rendered
	// syntactically-canonical spec. Registrations never invalidate it: a
	// success depends only on the registrations of the spec's own name and
	// of its children's, and those cannot change (a duplicate panics).
	memo map[string]normalized
}

// normalized is one memo entry: the parameters of a spec as given and in
// canonical form (normalization never changes the name). in is kept because
// the rendered key is not injective over specs built as struct literals (a
// value may hold ',' or '='); a hit counts only when the parameters match.
type normalized struct{ in, out map[string]string }

// memoLimit bounds the memo. A sweep has tens of distinct specs; a daemon
// fed arbitrary spec strings must not grow without limit, so a full memo is
// dropped whole and refills with what is in use.
const memoLimit = 1024

// NewRegistry returns an empty registry. kind names what it holds in error
// messages ("prefetcher", "workload"); check builds with throwaway
// arguments and is how Normalize validates a definition without Validate.
func NewRegistry[B any](g Grammar, kind string, check func(build B, v Values) error) *Registry[B] {
	return &Registry[B]{grammar: g, kind: kind, check: check,
		defs: make(map[string]Definition[B]), memo: make(map[string]normalized)}
}

// Register adds a definition under name. It panics on a duplicate or
// syntactically invalid name and on a nil Build or Defaults — registration
// is an init-time programming action, not a runtime input.
func (r *Registry[B]) Register(name string, def Definition[B]) {
	if err := r.grammar.checkName(name); err != nil {
		panic(fmt.Sprintf("%s: invalid registration name %q: %v", r.grammar.Pkg, name, err))
	}
	if b := reflect.ValueOf(def.Build); !b.IsValid() || b.IsNil() {
		panic(fmt.Sprintf("%s: registration %q has no Build", r.grammar.Pkg, name))
	}
	if def.Defaults == nil {
		panic(fmt.Sprintf("%s: registration %q has no Defaults (the parameter schema; an empty map means \"accepts no parameters\")", r.grammar.Pkg, name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.defs[name]; dup {
		panic(fmt.Sprintf("%s: %s %q registered twice", r.grammar.Pkg, r.kind, name))
	}
	r.defs[name] = def
}

// Lookup resolves spec's definition and returns it with the spec in
// syntactic canonical form (name folded per the grammar, keys lowercased).
// Unknown names and parameter keys are errors; the canonical spec is
// returned next to them.
func (r *Registry[B]) Lookup(spec Spec) (Definition[B], Spec, error) {
	spec = r.grammar.canonical(spec)
	r.mu.RLock()
	def, ok := r.defs[spec.Name]
	r.mu.RUnlock()
	if !ok {
		if err := r.grammar.checkName(spec.Name); err != nil {
			// A syntactically invalid name usually means an unparsed spec
			// string landed in Spec.Name; point at the real problem rather
			// than "unknown".
			return def, spec, fmt.Errorf("%s: invalid %s spec name %q: %v (parameterized specs are name:key=value,...)",
				r.grammar.Pkg, r.kind, spec.Name, err)
		}
		return def, spec, fmt.Errorf("%s: unknown %s %q (registered: %s)",
			r.grammar.Pkg, r.kind, spec.Name, strings.Join(r.Names(), "|"))
	}
	// Sorted iteration so the same bad spec always reports the same first
	// unknown key, whatever the map's order.
	for _, key := range sortedKeys(spec.Params) {
		if _, known := def.Defaults[key]; !known {
			return def, spec, fmt.Errorf("%s: %s has no parameter %q (accepted: %s)",
				r.grammar.Pkg, spec.Name, key, strings.Join(sortedKeys(def.Defaults), "|"))
		}
	}
	return def, spec, nil
}

// Normalize validates spec against the registry and returns its canonical
// form: parameters restricted to the registered key set, size and integer
// values re-rendered, and parameters spelled with their default value
// dropped — so "bo:scoremax=31" and "bo", "gups:footprint=64MB" and "gups"
// normalize (and therefore hash) identically. A spec that fails validation
// comes back syntactically canonical next to the error.
//
// Normalize is a pure function of the registrations and the spec, and
// everything that keys on a run (OptionsHash, WarmupKey, the distrib
// sign/verify) calls it for every spec of every job, so successes are
// memoised per process: a repeated spec costs a map lookup and a copy of
// its parameters, not a construction. Failures are not remembered — a name
// registered later must be seen. The returned Params map is the caller's.
func (r *Registry[B]) Normalize(spec Spec) (Spec, error) {
	spec = r.grammar.canonical(spec)
	key := spec.String()
	r.mu.RLock()
	e, ok := r.memo[key]
	r.mu.RUnlock()
	if ok && maps.Equal(e.in, spec.Params) {
		return Spec{Name: spec.Name, Params: maps.Clone(e.out)}, nil
	}
	out, err := r.normalize(spec)
	if err != nil {
		return out, err
	}
	e = normalized{in: spec.Params, out: maps.Clone(out.Params)}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.memo) >= memoLimit {
		clear(r.memo)
	}
	r.memo[key] = e
	return out, nil
}

// normalize is Normalize without the memo. It leaves spec untouched.
func (r *Registry[B]) normalize(spec Spec) (Spec, error) {
	def, spec, err := r.Lookup(spec)
	if err != nil {
		return spec, err
	}
	if def.Validate != nil {
		err = def.Validate(Values(spec.Params))
	} else {
		// Building validates the parameter values, so a normalized spec is
		// always constructible.
		err = r.check(def.Build, Values(spec.Params))
	}
	if err != nil {
		return spec, r.BuildError(spec, err)
	}
	params := spec.Params // Lookup's private copy
	for key, value := range params {
		switch {
		case slices.Contains(def.SizeKeys, key):
			if n, err := ParseSize(value); err == nil {
				params[key] = FormatSize(n)
			}
		case slices.Contains(def.IntKeys, key):
			params[key] = canonInts(value)
		}
	}
	if def.Canonicalize != nil && params != nil {
		if err := def.Canonicalize(params); err != nil {
			return spec, r.BuildError(spec, err)
		}
	}
	for key, value := range params {
		if def.Defaults[key] == value {
			delete(params, key) // spelled-out default: drop for a stable canonical form
		}
	}
	if len(params) == 0 {
		params = nil
	}
	return Spec{Name: spec.Name, Params: params}, nil
}

// BuildError wraps a Build or Validate failure of spec in the registry's
// "pkg: name: cause" form.
func (r *Registry[B]) BuildError(spec Spec, err error) error {
	return fmt.Errorf("%s: %s: %v", r.grammar.Pkg, spec.Name, err)
}

// Names returns the sorted names of every registration.
func (r *Registry[B]) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return sortedKeys(r.defs)
}

// Help returns the registered help line for name ("" when unknown).
func (r *Registry[B]) Help(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defs[name].Help
}

// Defaults returns a copy of the registered parameter schema for name:
// every accepted key with its canonical default rendering. The second
// result reports whether the name is registered.
func (r *Registry[B]) Defaults(name string) (map[string]string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	def, ok := r.defs[name]
	if !ok {
		return nil, false
	}
	out := make(map[string]string, len(def.Defaults))
	for k, v := range def.Defaults {
		out[k] = v
	}
	return out, true
}
