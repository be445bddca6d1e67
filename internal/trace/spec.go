package trace

import (
	"fmt"
	"strings"

	"bopsim/internal/spec"
)

// This file binds internal/spec to the workload axis. Each generator — the
// SPEC stand-ins, the parameterized micro-patterns, the trace replayer —
// registers a Definition for its name in an init function.

// Spec names a workload generator and its parameters, e.g. "429.mcf",
// "stream:stride=128", "gups:footprint=64mb", "file:path=milc.trace".
type Spec = spec.Spec

// Values is the parameter map a Build function parses.
type Values = spec.Values

// Grammar is the workload axis' spec syntax: names are case-sensitive
// [A-Za-z0-9._-] — the SPEC stand-ins keep their published spellings
// ("459.GemsFDTD") — and ';' is reserved in values because it separates
// per-core specs at the CLI (ParseSpecList).
var Grammar = spec.Grammar{Pkg: "trace", Reserved: ";"}

// Build constructs a generator. seed is the run-derived seed for the core
// the generator will drive (Options.Seed + core*7919); a spec's explicit
// seed parameter overrides it (see Values.Seed).
type Build = func(seed uint64, v Values) (Generator, error)

// Definition describes one registered workload generator.
type Definition = spec.Definition[Build]

// Generators is the workload registry. A definition without a Validate hook
// is checked by building with a throwaway seed.
var Generators = spec.NewRegistry(Grammar, "workload", func(b Build, v Values) error { _, err := b(1, v); return err })

// ParseSpec parses the canonical string form; whether the name is
// registered and the parameters valid is checked by NewGenerator (or
// Normalize).
func ParseSpec(s string) (Spec, error) { return Grammar.Parse(s) }

// MustSpec is ParseSpec that panics on error, for tests and examples.
func MustSpec(s string) Spec { return Grammar.MustParse(s) }

// Register registers a workload generator definition under name; see
// spec.Registry.Register for what panics.
func Register(name string, def Definition) { Generators.Register(name, def) }

// NewGenerator builds the workload generator described by s, seeding it
// with seed unless the spec carries an explicit seed parameter. Unknown
// names and parameters, and invalid parameter values, are errors.
func NewGenerator(s Spec, seed uint64) (Generator, error) {
	def, s, err := Generators.Lookup(s)
	if err != nil {
		return nil, err
	}
	g, err := def.Build(seed, Values(s.Params))
	if err != nil {
		return nil, Generators.BuildError(s, err)
	}
	return g, nil
}

// Normalize validates s against the registry and returns its canonical form
// (see spec.Registry.Normalize): "stream:stride=64" and "stream" normalize —
// and therefore hash — identically.
func Normalize(s Spec) (Spec, error) { return Generators.Normalize(s) }

// Names returns the sorted names of every registered workload generator.
func Names() []string { return Generators.Names() }

// ParseSpecList parses a ';'-separated list of workload specs — the CLI
// form of a per-core assignment ("gups:footprint=64mb;stream:stride=128").
// Position is load-bearing (entry i drives core i), so an interior empty
// segment is an error rather than a silent compaction that would shift
// later specs onto the wrong cores; only a trailing ';' is tolerated.
func ParseSpecList(s string) ([]Spec, error) {
	parts := strings.Split(s, ";")
	for len(parts) > 0 && strings.TrimSpace(parts[len(parts)-1]) == "" {
		parts = parts[:len(parts)-1]
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("trace: empty workload spec list %q", s)
	}
	out := make([]Spec, 0, len(parts))
	for i, part := range parts {
		if strings.TrimSpace(part) == "" {
			return nil, fmt.Errorf("trace: empty workload spec at position %d of %q (each ';'-separated entry drives one core)", i, s)
		}
		sp, err := ParseSpec(part)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

// SpecsLabel renders a per-core spec assignment for logs and status lines:
// canonical strings joined by ';', with trailing default-thrasher entries
// trimmed so legacy single-workload runs read as before. Callers pass
// already-canonical specs (this does not consult the registry).
func SpecsLabel(ws []Spec) string {
	for len(ws) > 1 && ws[len(ws)-1].String() == "microthrash" {
		ws = ws[:len(ws)-1]
	}
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = w.String()
	}
	return strings.Join(parts, ";")
}

// FileSpec returns the spec replaying the recorded trace at path — the
// spec-form spelling of the historical Options.TracePath escape hatch.
func FileSpec(path string) Spec {
	return Spec{Name: "file", Params: map[string]string{"path": path}}
}

// HashSpec returns the spec in hash form: the spelling everything
// content-addressed (cache keys, warmup signatures, the distrib wire) uses.
// File specs are keyed by their trace's content SHA-256, never by path —
// editing a trace invalidates its cached results, and a worker's local copy
// hashes identically — so a resolvable path parameter is replaced by the
// content hash. Every other spec is returned unchanged. An unreadable
// trace falls back to the path spelling (the simulation will fail with the
// real error anyway).
func HashSpec(s Spec) Spec {
	if s.Name != "file" {
		return s
	}
	path, ok := s.Get("path")
	if !ok {
		return s
	}
	sha := ContentSHA(path)
	if sha == "" {
		return s
	}
	// Parameters other than path survive: a future file knob must keep
	// participating in cache keys and warmup signatures.
	return s.Without("path").With("sha", sha)
}

// WireSpec is HashSpec with an error for unreadable traces: the distrib
// coordinator must not ship a file job it cannot identify by content.
func WireSpec(s Spec) (Spec, error) {
	hs := HashSpec(s)
	if hs.Name == "file" {
		if _, ok := hs.Get("sha"); !ok {
			path, _ := s.Get("path")
			return Spec{}, fmt.Errorf("trace: %s unreadable, cannot ship by content hash", path)
		}
	}
	return hs, nil
}
