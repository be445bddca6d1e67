// Package nondeterm flags nondeterminism entering result-affecting code:
// wall clocks, global randomness, the environment, and map iteration whose
// order can reach an output, hash, or serialization sink.
//
// Everything this repo publishes — Table 1 bytes identical across
// serial/parallel/distributed/checkpointed execution — depends on result
// paths being pure functions of engine.Options. The runtime golden suites
// prove that after the fact; this analyzer refuses the classic ways of
// breaking it at compile time.
//
// The analyzer is interprocedural across the module: every package
// (infrastructure included) is scanned for functions that reach a banned
// call — directly, through same-package callees, or through a callee in an
// already-analyzed module package — and each such function carries a
// Nondeterministic fact. Infra packages may use clocks freely themselves,
// but the moment a result-affecting package calls one of their tainted
// helpers, the call site is a finding: the package boundary no longer
// launders ambient state into results.
package nondeterm

import (
	"go/ast"
	"go/types"
	"strings"

	"bopsim/internal/analysis"
)

// Analyzer is the nondeterm pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondeterm",
	Doc: "forbid wall clocks, global rand, env vars and unsorted map iteration " +
		"into sinks inside result-affecting packages, following calls across packages",
	Run:       run,
	FactTypes: []analysis.Fact{(*Nondeterministic)(nil)},
}

// Nondeterministic is exported on every function that reaches a banned
// ambient-state call, so importing packages see the taint at their call
// sites.
type Nondeterministic struct {
	// Path is the call chain from this function down to the ambient-state
	// read, innermost call last (e.g. ["bopsim/internal/experiments.Stamp",
	// "time.Now"]). Capped; the root cause is always the last element.
	Path []string
}

// AFact marks Nondeterministic as a fact type.
func (*Nondeterministic) AFact() {}

// maxPathLen caps the reported chain; deep chains elide the middle.
const maxPathLen = 4

// bannedFuncs maps defining package path -> function name -> what to say.
// Methods are exempt (a *rand.Rand seeded from Options is deterministic);
// these are the package-level entry points that reach ambient state.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":   "wall-clock time is not a function of engine.Options",
		"Since": "wall-clock time is not a function of engine.Options",
		"Until": "wall-clock time is not a function of engine.Options",
	},
	"os": {
		"Getenv":    "the environment is not part of the simulated configuration",
		"LookupEnv": "the environment is not part of the simulated configuration",
		"Environ":   "the environment is not part of the simulated configuration",
	},
}

// globalRandPackages: every package-level function in these shares the
// global, cross-goroutine source; seeded per-run *rand.Rand values (or
// internal/rng) are the sanctioned alternative.
var globalRandPackages = map[string]bool{"math/rand": true, "math/rand/v2": true}

// taint records why one declared function is nondeterministic.
type taint struct {
	path []string // chain down to the ambient read, innermost last
}

func run(pass *analysis.Pass) error {
	reporting := analysis.ResultAffecting(pass.Pkg.Path())

	// Index this package's function declarations in file order, so the
	// taint fixpoint (and therefore fact contents and messages) is
	// deterministic.
	var decls []*ast.FuncDecl
	byFunc := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls = append(decls, fd)
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					byFunc[fn] = fd
				}
			}
		}
	}

	// Seed taint from direct banned calls and from cross-package callees
	// that carry the fact; record same-package call edges for propagation.
	taints := make(map[*ast.FuncDecl]*taint)
	callees := make(map[*ast.FuncDecl][]*ast.FuncDecl)
	for _, fd := range decls {
		fd := fd
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.FuncFor(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if what, why := bannedCall(fn); what != "" {
				if reporting {
					pass.Reportf(call.Pos(), "call to %s in result-affecting package: %s", what, why)
				}
				if !pass.Allowed(call.Pos()) {
					addTaint(taints, fd, []string{what})
				}
				return true
			}
			if local, ok := byFunc[fn]; ok {
				callees[fd] = append(callees[fd], local)
				return true
			}
			if fn.Pkg() == pass.Pkg || !analysis.ModulePackage(fn.Pkg().Path()) {
				return true
			}
			var fact Nondeterministic
			if pass.ImportObjectFact(fn, &fact) {
				path := prepend(qualifiedName(fn), fact.Path)
				if reporting {
					pass.Reportf(call.Pos(), "call to %s in result-affecting package reaches %s (via %s)",
						qualifiedName(fn), root(path), strings.Join(path[:len(path)-1], " -> "))
				}
				if !pass.Allowed(call.Pos()) {
					addTaint(taints, fd, path)
				}
			}
			return true
		})
	}

	// Intra-package propagation to a fixpoint: a caller of a tainted
	// function is tainted. First assignment wins, and iteration is in
	// declaration order, so the chains are stable.
	for changed := true; changed; {
		changed = false
		for _, fd := range decls {
			if taints[fd] != nil {
				continue
			}
			for _, callee := range callees[fd] {
				if t := taints[callee]; t != nil {
					addTaint(taints, fd, prepend(declName(pass, callee), t.path))
					changed = true
					break
				}
			}
		}
	}

	// Export facts so importing packages see the taint. Unexported
	// functions are included for uniformity; only objects visible through
	// export data can be referenced downstream anyway.
	for _, fd := range decls {
		t := taints[fd]
		if t == nil {
			continue
		}
		if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
			pass.ExportObjectFact(fn, &Nondeterministic{Path: t.path})
		}
	}

	if reporting {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if rng, ok := n.(*ast.RangeStmt); ok {
					checkMapRange(pass, file, rng)
				}
				return true
			})
		}
	}
	return nil
}

// bannedCall classifies a direct call to an ambient-state entry point.
func bannedCall(fn *types.Func) (what, why string) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", "" // methods on locally seeded values are fine
	}
	path, name := fn.Pkg().Path(), fn.Name()
	if why, ok := bannedFuncs[path][name]; ok {
		return path + "." + name, why
	}
	if globalRandPackages[path] {
		return path + "." + name, "uses the global random source; derive a seeded source from engine.Options instead"
	}
	return "", ""
}

func addTaint(taints map[*ast.FuncDecl]*taint, fd *ast.FuncDecl, path []string) {
	if taints[fd] == nil {
		taints[fd] = &taint{path: path}
	}
}

// prepend builds a chain with hop first, eliding the middle beyond
// maxPathLen while always preserving the root cause at the end.
func prepend(hop string, rest []string) []string {
	path := append([]string{hop}, rest...)
	if len(path) > maxPathLen {
		elided := append([]string{}, path[:maxPathLen-2]...)
		elided = append(elided, "...", path[len(path)-1])
		return elided
	}
	return path
}

func root(path []string) string { return path[len(path)-1] }

func qualifiedName(fn *types.Func) string {
	return fn.Pkg().Path() + "." + analysis.ObjectKey(fn)
}

func declName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
		return qualifiedName(fn)
	}
	return fd.Name.Name
}

// checkMapRange flags `for ... := range m` over a map when the loop body
// feeds an order-sensitive sink — appends to an outer slice that is never
// sorted afterwards, formatted printing, Write-style calls, or float
// accumulation — because map iteration order would then reach bytes the
// golden tests promise are stable. The sanctioned pattern (collect keys,
// sort, iterate the slice) is recognized: the key-collecting append is
// allowed when a sort call on the same slice follows the loop.
func checkMapRange(pass *analysis.Pass, file *ast.File, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	body := findEnclosingBody(file, rng)

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sink := sinkCall(pass, n); sink != "" {
				pass.Reportf(rng.Pos(), "map iteration feeds %s; iterate sorted keys instead (see spec/registry.go)", sink)
				return true
			}
		case *ast.AssignStmt:
			checkRangeAssign(pass, body, rng, n)
		}
		return true
	})
}

func checkRangeAssign(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, assign *ast.AssignStmt) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	obj := outerObject(pass, rng, assign.Lhs[0])
	if obj == nil {
		return
	}
	// x = append(x, ...) building a slice in map order.
	if call, ok := assign.Rhs[0].(*ast.CallExpr); ok && isAppend(pass, call) {
		if !sortedAfter(pass, body, rng, obj) {
			pass.Reportf(assign.Pos(), "appending to %s in map-iteration order without sorting it afterwards; sort before the bytes escape", obj.Name())
		}
		return
	}
	// x += v float accumulation: addition order changes the result.
	if assign.Tok.String() == "+=" || assign.Tok.String() == "-=" {
		if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsFloat != 0 {
			pass.Reportf(assign.Pos(), "accumulating float %s in map-iteration order; float addition is not associative — iterate sorted keys", obj.Name())
		}
	}
}

// sinkCall classifies a call as an order-sensitive sink: formatted printing
// or a Write-family method (io.Writer, hash.Hash, bufio, strings.Builder).
func sinkCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := funcFor(pass, call)
	if fn == nil {
		return ""
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return "fmt." + fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return "a " + fn.Name() + " sink"
		}
	}
	return ""
}

// outerObject returns the object assigned through lhs when it was declared
// outside the range statement (so writes to it survive the loop).
func outerObject(pass *analysis.Pass, rng *ast.RangeStmt, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	if obj == nil || obj.Pos() == 0 {
		return nil
	}
	if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
		return nil // loop-local: dies with the iteration
	}
	return obj
}

func isAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether, after the range statement, the enclosing
// function body contains a sort/slices call naming obj — the second half of
// the sanctioned collect-sort-iterate pattern.
func sortedAfter(pass *analysis.Pass, body *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		fn := funcFor(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return true
	})
	return found
}

// findEnclosingBody returns the body of the innermost function enclosing n.
func findEnclosingBody(file *ast.File, n ast.Node) *ast.BlockStmt {
	var body *ast.BlockStmt
	ast.Inspect(file, func(cand ast.Node) bool {
		if cand == nil || cand.Pos() > n.Pos() || cand.End() < n.End() {
			return false
		}
		switch cand := cand.(type) {
		case *ast.FuncDecl:
			if cand.Body != nil {
				body = cand.Body
			}
		case *ast.FuncLit:
			body = cand.Body
		}
		return true
	})
	return body
}

func funcFor(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	return analysis.FuncFor(pass.TypesInfo, call)
}
