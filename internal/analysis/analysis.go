// Package analysis is a self-contained static-analysis framework for the
// bovet analyzer suite (cmd/bovet). It mirrors the shape of the
// golang.org/x/tools/go/analysis API — Analyzer, Pass, Diagnostic, Fact —
// but is built purely on the standard library's go/ast and go/types,
// because this module deliberately has no third-party dependencies.
//
// The suite mechanically enforces the invariants every result in this
// repo rests on (see DESIGN.md "Static invariants"):
//
//   - nondeterm:     result paths must not consult wall clocks, global
//     randomness, the environment, or unsorted map iteration order —
//     directly, or through a call into another package that does.
//   - statecodec:    every mutable field of a SaveState/RestoreState type
//     must round-trip through its codec methods.
//   - hotalloc:      functions on a //bovet:hotpath must not contain
//     allocation sites, nor call cross-package functions that do.
//   - deadallow:     every //bovet:allow directive suppressed at least one
//     diagnostic this run; stale exceptions are findings themselves.
//
// Justified exceptions are annotated in source with
// "//bovet:allow <analyzer>[,<analyzer>] <reason>"; the reason is
// mandatory (see directives.go). Cross-package reasoning rides the facts
// layer (facts.go): packages are analyzed in dependency order and each
// pass may export facts about its objects that downstream passes import.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check. Run is invoked once per loaded
// package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //bovet:allow directives. It must be a single lower-case word.
	Name string
	// Doc is a short description shown by `bovet -help`.
	Doc string
	// Run performs the analysis on one package.
	Run func(*Pass) error
	// FactTypes lists prototype values (pointer types) of every Fact this
	// analyzer exports or imports. Facts of unlisted types are rejected.
	FactTypes []Fact
}

// Pass carries one package's syntax and type information to an Analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *factStore
	allows *allowSet
}

// Diagnostic is one finding at one source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Report records a finding.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf records a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact states fact about obj, which must be declared in the
// package under analysis. Downstream packages that can reference obj
// retrieve it with ImportObjectFact. Objects invisible across package
// boundaries (locals, fields) are silently unkeyable and the fact is
// retained for same-package importers only if keyable.
func (p *Pass) ExportObjectFact(obj types.Object, f Fact) {
	if obj == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact on object of another package", p.Analyzer.Name))
	}
	p.checkFactType(f)
	if key := ObjectKey(obj); key != "" {
		p.facts.put(p.Pkg.Path(), key, f)
	}
}

// ImportObjectFact copies the fact of fptr's concrete type previously
// exported about obj into fptr and reports whether one exists. obj may
// belong to any package analyzed earlier in the run, including the current
// one.
func (p *Pass) ImportObjectFact(obj types.Object, fptr Fact) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	p.checkFactType(fptr)
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	return p.facts.get(obj.Pkg().Path(), key, fptr)
}

func (p *Pass) checkFactType(f Fact) {
	for _, proto := range p.Analyzer.FactTypes {
		if fmt.Sprintf("%T", proto) == fmt.Sprintf("%T", f) {
			return
		}
	}
	panic(fmt.Sprintf("%s: fact type %T not declared in FactTypes", p.Analyzer.Name, f))
}

// Allowed reports whether a //bovet:allow directive for this pass's
// analyzer covers pos. Analyzers consult it while computing facts, so a
// justified exception stops taint from propagating to callers, not just
// the local diagnostic. A hit counts as using the directive for the
// deadallow inventory.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allows == nil {
		return false
	}
	return p.allows.suppresses(p.Analyzer.Name, p.Fset.Position(pos))
}

// Finding is a resolved diagnostic: an analyzer name plus a concrete file
// position, ready to print or compare.
type Finding struct {
	Analyzer string
	Pkg      string // import path of the package the finding is in
	Posn     token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Posn, f.Analyzer, f.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
	// DepOnly marks a module dependency loaded solely so its facts are
	// available to the target packages: analyzers run on it to compute
	// facts, but its diagnostics are not reported (it is not part of what
	// the user asked to check; running bovet on it directly reports them).
	DepOnly bool
}

// Runner executes a suite over packages in dependency order, threading
// facts from each package to its importers.
type Runner struct {
	// Suite is the active analyzers, in execution order.
	Suite []*Analyzer
	// Known lists every analyzer name valid in //bovet:allow directives.
	// Defaults to Suite; cmd/bovet passes the full suite here when -analyzers
	// narrows the active set, so a directive naming an unselected analyzer
	// is not misreported as unknown.
	Known []*Analyzer

	store *factStore
}

func (r *Runner) init() {
	if r.store != nil {
		return
	}
	r.store = newFactStore()
	if r.Known == nil {
		r.Known = r.Suite
	}
}

// Run applies the suite to every package — dependencies first, so facts
// flow to importers — and returns the surviving findings of the target
// (non-DepOnly) packages sorted by (package, file, line, column,
// analyzer). //bovet:allow-suppressed diagnostics are dropped; malformed
// or unknown-name directives are themselves reported under the
// pseudo-analyzer "bovet" (a typoed directive must not silently fail to
// suppress); and when the active suite includes deadallow, every allow
// directive that suppressed nothing is reported at its own position.
func (r *Runner) Run(pkgs []*Package) ([]Finding, error) {
	r.init()
	var findings []Finding
	for _, pkg := range pkgs {
		fs, err := r.runPackage(pkg)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	sortFindings(findings)
	return findings, nil
}

func (r *Runner) runPackage(pkg *Package) ([]Finding, error) {
	allows, bad := parseAllows(pkg.Fset, pkg.Files, r.Known)
	var findings []Finding
	if !pkg.DepOnly {
		findings = append(findings, bad...)
	}
	for _, a := range r.Suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			facts:     r.store,
			allows:    allows,
		}
		pass.report = func(d Diagnostic) {
			posn := pkg.Fset.Position(d.Pos)
			if allows.suppresses(a.Name, posn) {
				return
			}
			if !pkg.DepOnly {
				findings = append(findings, Finding{Analyzer: a.Name, Pkg: pkg.PkgPath, Posn: posn, Message: d.Message})
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.PkgPath, err)
		}
	}
	if !pkg.DepOnly {
		findings = append(findings, deadAllows(pkg, allows, r.Suite)...)
	}
	return findings, nil
}

// deadAllows reports every allow directive that suppressed no diagnostic,
// provided the active suite includes the deadallow analyzer and every
// analyzer the directive names actually ran (an allow for an unselected
// analyzer cannot be judged dead this run).
func deadAllows(pkg *Package, allows *allowSet, suite []*Analyzer) []Finding {
	active := make(map[string]bool, len(suite))
	hasDeadallow := false
	for _, a := range suite {
		active[a.Name] = true
		if a.Name == DeadallowName {
			hasDeadallow = true
		}
	}
	if !hasDeadallow {
		return nil
	}
	var out []Finding
	for _, e := range allows.entries {
		if e.used {
			continue
		}
		judgeable := true
		for _, name := range e.names {
			if !active[name] {
				judgeable = false
				break
			}
		}
		if !judgeable {
			continue
		}
		out = append(out, Finding{
			Analyzer: DeadallowName,
			Pkg:      pkg.PkgPath,
			Posn:     pkg.Fset.Position(e.pos),
			Message: fmt.Sprintf("//bovet:allow %s suppressed no diagnostic this run; the exception is stale — remove it or fix the code it used to excuse",
				e.spelling),
		})
	}
	return out
}

// DeadallowName is the deadallow analyzer's registered name; the Run
// machinery keys its special post-pass on it (the check needs the usage
// ledger of every other analyzer, so it cannot be an ordinary per-package
// pass).
const DeadallowName = "deadallow"

// Run applies every analyzer to every package with a fresh Runner.
// Packages must be in dependency order when analyzers use facts; the loader
// returns them that way.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	return (&Runner{Suite: analyzers}).Run(pkgs)
}

func sortFindings(fs []Finding) {
	// (package, file, line, column, analyzer) order makes output — and the
	// CI `bovet -json` artifact — byte-stable across runs regardless of
	// package load order; the suite practices the determinism it preaches.
	less := func(a, b Finding) bool {
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Posn.Filename != b.Posn.Filename {
			return a.Posn.Filename < b.Posn.Filename
		}
		if a.Posn.Line != b.Posn.Line {
			return a.Posn.Line < b.Posn.Line
		}
		if a.Posn.Column != b.Posn.Column {
			return a.Posn.Column < b.Posn.Column
		}
		return a.Analyzer < b.Analyzer
	}
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && less(fs[j], fs[j-1]); j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// FuncFor returns the *types.Func a call expression statically resolves to,
// or nil for builtins, type conversions, function-typed variables and
// interface-typed callees whose dynamic target is unknown. Shared by the
// analyzers that classify calls (nondeterm, hotalloc).
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		} else if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		}
	case *ast.IndexListExpr:
		if sel, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			id = sel.Sel
		} else if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = base
		}
	}
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltin reports whether a call invokes the named builtin (append, make,
// new, ...).
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}
