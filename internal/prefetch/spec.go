package prefetch

import (
	"bopsim/internal/mem"
	"bopsim/internal/spec"
)

// This file binds internal/spec to the prefetcher axis. Each prefetcher
// package registers a definition for its name in an init function (core
// registers "bo", sbp "sbp", and so on; internal/prefetch/all blank-imports
// every implementation, the way image codecs and database drivers link in).
//
// There are two registries for the two attachment points: L2 prefetchers
// (physical line addresses, the paper's configurable slot) and L1
// prefetchers (PC + virtual address, the DL1 stride slot).

// Spec names a prefetcher and its parameters, e.g. "nextline", "offset:d=4",
// "bo:badscore=5,rr=64".
type Spec = spec.Spec

// Values is the parameter map a Build function parses.
type Values = spec.Values

// Grammar is the prefetcher axis' spec syntax: names are lowercase
// [a-z0-9_-] and fold on input ("BO" is "bo"); no value character is
// reserved beyond the shared ones, which leaves '.', '~' and ';' free to
// quote nested sub-specs (see QuoteSubSpec).
var Grammar = spec.Grammar{Pkg: "prefetch", FoldNames: true}

// L2Build and L1Build construct a prefetcher for one page size. A nil
// result with a nil error means "explicitly no prefetcher" (the "none"
// registrations).
type (
	L2Build = func(page mem.PageSize, v Values) (L2Prefetcher, error)
	L1Build = func(page mem.PageSize, v Values) (L1Prefetcher, error)
	// L2Def and L1Def are what RegisterL2 and RegisterL1 take.
	L2Def = spec.Definition[L2Build]
	L1Def = spec.Definition[L1Build]
)

// L2 and L1 are the two registries. A definition without a Validate hook is
// checked by building for 4KB pages, once per distinct spec: Normalize
// remembers what it accepted.
var (
	L2 = spec.NewRegistry(Grammar, "prefetcher", func(b L2Build, v Values) error { _, err := b(mem.Page4K, v); return err })
	L1 = spec.NewRegistry(Grammar, "prefetcher", func(b L1Build, v Values) error { _, err := b(mem.Page4K, v); return err })
)

// ParseSpec parses the canonical string form; whether the name is
// registered and the parameters valid is checked by NewL2/NewL1 (or
// NormalizeL2/NormalizeL1).
func ParseSpec(s string) (Spec, error) { return Grammar.Parse(s) }

// MustSpec is ParseSpec that panics on error, for tests and examples.
func MustSpec(s string) Spec { return Grammar.MustParse(s) }

// RegisterL2 registers an L2 prefetcher definition under name; see
// spec.Registry.Register for what panics.
func RegisterL2(name string, def L2Def) { L2.Register(name, def) }

// RegisterL1 registers an L1 (DL1) prefetcher definition under name.
func RegisterL1(name string, def L1Def) { L1.Register(name, def) }

// NewL2 builds the L2 prefetcher described by s. Unknown names and
// parameters, and invalid parameter values, are errors.
func NewL2(s Spec, page mem.PageSize) (L2Prefetcher, error) { return build(L2, s, page) }

// NewL1 builds the L1 prefetcher described by s. A nil prefetcher with a
// nil error means the spec explicitly disables L1 prefetching ("none").
func NewL1(s Spec, page mem.PageSize) (L1Prefetcher, error) { return build(L1, s, page) }

func build[T any](r *spec.Registry[func(mem.PageSize, Values) (T, error)], s Spec, page mem.PageSize) (T, error) {
	var zero T
	def, s, err := r.Lookup(s)
	if err != nil {
		return zero, err
	}
	p, err := def.Build(page, Values(s.Params))
	if err != nil {
		return zero, r.BuildError(s, err)
	}
	return p, nil
}

// NormalizeL2 validates s against the L2 registry and returns its canonical
// form (see spec.Registry.Normalize): "bo:scoremax=31" and "bo" normalize —
// and therefore hash — identically.
func NormalizeL2(s Spec) (Spec, error) { return L2.Normalize(s) }

// NormalizeL1 is NormalizeL2 for the L1 registry.
func NormalizeL1(s Spec) (Spec, error) { return L1.Normalize(s) }

// L2Names returns the sorted names of every registered L2 prefetcher.
func L2Names() []string { return L2.Names() }

// L1Names returns the sorted names of every registered L1 prefetcher.
func L1Names() []string { return L1.Names() }
