package analysis

// The facts layer makes bovet interprocedural across the module, mirroring
// golang.org/x/tools/go/analysis facts on the standard library only.
//
// A Fact is a statement an analyzer proves about one object (a function,
// method, type or package-level variable) while analyzing the package that
// declares it. Packages are analyzed in dependency order — the loader emits
// dependencies before their importers, exactly as `go list -deps` orders
// them — so when a pass later analyzes an importer, the facts of everything
// it can reference are already available through Pass.ImportObjectFact.
//
// This is what turns per-package invariants into module-wide ones: a
// result-affecting package calling an infra helper that (transitively)
// reads time.Now is a finding at the call site, because the helper's
// defining package exported a Nondeterministic fact on it; a hot loop
// calling a concrete function in another package is checked against that
// function's Allocates fact instead of stopping at the package edge.
//
// Identity. Each analyzer lists concrete prototypes in Analyzer.FactTypes.
// Objects are keyed by a stable string — "Name" for package-scope objects,
// "Recv.Name" for methods — which covers everything a downstream package can
// statically reference (only package-scope objects and methods of named
// types are visible across a package boundary; an unexported helper's facts
// are consumed inside its own package and summarized onto its exported
// callers). Facts live in memory only: every package a run needs is
// analyzed in the one process.

import (
	"go/types"
	"reflect"
	"strings"
)

// Fact is a statement proved about an object, exported by the pass analyzing
// the defining package and importable by every downstream pass.
// Implementations must be pointer types listed in their analyzer's FactTypes.
type Fact interface {
	// AFact is a marker; it has no behavior.
	AFact()
}

// ObjectKey returns the stable cross-package identity of a package-scope
// object: "Name" for functions, types, vars and consts, "Recv.Name" for
// methods of a named type. It returns "" for objects that cannot be
// referenced from another package's syntax (locals, struct fields,
// interface methods of anonymous interfaces), which are not keyable.
func ObjectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // not package-scope: invisible across packages
	}
	return obj.Name()
}

// factKey identifies one fact: the defining package, the object key, and
// the concrete fact type.
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// factStore holds every fact passes exported so far this run.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore {
	return &factStore{m: make(map[factKey]Fact)}
}

func (s *factStore) put(pkg, obj string, f Fact) {
	s.m[factKey{pkg, obj, reflect.TypeOf(f)}] = f
}

// get copies the stored fact for (pkg, obj, type of fptr) into fptr and
// reports whether one existed.
func (s *factStore) get(pkg, obj string, fptr Fact) bool {
	k := factKey{pkg, obj, reflect.TypeOf(fptr)}
	f, ok := s.m[k]
	if !ok {
		return false
	}
	reflect.ValueOf(fptr).Elem().Set(reflect.ValueOf(f).Elem())
	return true
}

// ModulePackage reports whether pkgPath belongs to this module — the only
// packages bovet exports facts for (the standard library's behavior is
// axiomatic: it appears in analyzers as banned-function lists, not facts).
func ModulePackage(pkgPath string) bool {
	return pkgPath == strings.TrimSuffix(modulePrefix, "/") ||
		strings.HasPrefix(pkgPath, modulePrefix)
}
