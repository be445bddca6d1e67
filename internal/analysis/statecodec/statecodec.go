// Package statecodec verifies checkpoint completeness: for every type with
// SaveState/RestoreState codec methods (the engine's checkpoint contract:
// the machine components a snapshot carries — cores, caches, TLBs, DRAM,
// the hierarchy), each mutable struct field must be referenced by the
// codec — otherwise a checkpointed run silently diverges from a straight
// run the first time that field matters.
//
// This is the PR 4 footgun made a build error: adding a field to a stateful
// component and forgetting to thread it through the codec used to be
// detectable only by the golden determinism suite actually exercising that
// field's behavior under a checkpoint.
//
// "Mutable" means some method of the type assigns the field (or an element
// of it, or takes its address, explicitly or by calling a pointer-receiver
// method on it); construction-time-only configuration is
// ignored. "Referenced" means the field is selected anywhere in SaveState,
// RestoreState, or a same-package function/method they (transitively)
// call. Func- and chan-typed fields are exempt — they are wiring, not
// serializable state. A field that genuinely need not round-trip carries
// "//bovet:allow statecodec <reason>" on its declaration line.
package statecodec

import (
	"go/ast"
	"go/types"

	"bopsim/internal/analysis"
)

// Analyzer is the statecodec pass.
var Analyzer = &analysis.Analyzer{
	Name: "statecodec",
	Doc:  "report mutable fields of SaveState/RestoreState types that the codec methods never touch",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	funcs := indexFuncs(pass)
	for typeName, methods := range methodsByType(pass) {
		save, hasSave := methods["SaveState"]
		restore, hasRestore := methods["RestoreState"]
		if !hasSave || !hasRestore {
			continue
		}
		st := structOf(pass, typeName)
		if st == nil {
			continue
		}
		referenced := make(map[string]bool)
		seen := make(map[*ast.FuncDecl]bool)
		collectReferences(pass, funcs, save, referenced, seen)
		collectReferences(pass, funcs, restore, referenced, seen)

		mutable := mutableFields(pass, methods)
		for _, field := range st.Fields.List {
			for _, name := range field.Names {
				if name.Name == "_" || referenced[name.Name] || !mutable[name.Name] {
					continue
				}
				if exemptType(pass.TypesInfo.TypeOf(field.Type)) {
					continue
				}
				pass.Reportf(name.Pos(), "%s.%s is mutated by methods but never touched by SaveState/RestoreState; a restored checkpoint silently diverges (serialize it or annotate why it need not round-trip)",
					typeName, name.Name)
			}
		}
	}
	return nil
}

// methodsByType groups the package's method declarations by receiver base
// type name.
func methodsByType(pass *analysis.Pass) map[string]map[string]*ast.FuncDecl {
	out := make(map[string]map[string]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			base := receiverBase(fd.Recv.List[0].Type)
			if base == "" {
				continue
			}
			if out[base] == nil {
				out[base] = make(map[string]*ast.FuncDecl)
			}
			out[base][fd.Name.Name] = fd
		}
	}
	return out
}

func receiverBase(expr ast.Expr) string {
	switch t := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverBase(t.X)
	case *ast.IndexExpr: // generic receiver T[P]
		return receiverBase(t.X)
	case *ast.IndexListExpr:
		return receiverBase(t.X)
	}
	return ""
}

// structOf returns the declared struct type for the named type, or nil when
// the type is not a struct declared in this package.
func structOf(pass *analysis.Pass, name string) *ast.StructType {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st
				}
				return nil
			}
		}
	}
	return nil
}

// collectReferences walks a codec method recording every receiver field it
// selects, following calls to same-receiver methods and to same-package
// functions the receiver is passed to (the split-helper pattern:
// cache.LRU.SaveState -> p.state.save).
func collectReferences(pass *analysis.Pass, funcs map[*types.Func]*ast.FuncDecl, decl *ast.FuncDecl, referenced map[string]bool, seen map[*ast.FuncDecl]bool) {
	if decl == nil || decl.Body == nil || seen[decl] {
		return
	}
	seen[decl] = true
	roots := parameterObjects(pass, decl)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(n.X).(*ast.Ident); ok && roots[pass.TypesInfo.Uses[id]] {
				referenced[n.Sel.Name] = true
			}
		case *ast.CallExpr:
			if callee := analysis.FuncFor(pass.TypesInfo, n); callee != nil {
				if next, ok := funcs[callee]; ok {
					collectReferences(pass, funcs, next, referenced, seen)
				}
			}
		}
		return true
	})
}

// parameterObjects returns the receiver and parameter objects of decl: any
// of them may alias the codec'd value when helpers take it as an argument.
func parameterObjects(pass *analysis.Pass, decl *ast.FuncDecl) map[types.Object]bool {
	roots := make(map[types.Object]bool)
	add := func(fields *ast.FieldList) {
		if fields == nil {
			return
		}
		for _, f := range fields.List {
			for _, name := range f.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					roots[obj] = true
				}
			}
		}
	}
	add(decl.Recv)
	add(decl.Type.Params)
	return roots
}

// indexFuncs maps every function/method object declared in the package to
// its declaration, for call-graph chasing.
func indexFuncs(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[fn] = fd
				}
			}
		}
	}
	return out
}

// mutableFields returns the receiver fields assigned (directly, through an
// element, or by address-taking) in any method of the type. A pointer-receiver
// method selected on a field that is not a pointer (h.pool.put(e)) takes its
// address implicitly, so it counts as address-taking. RestoreState's
// own writes count too, but a field written there is by definition also
// referenced, so it never reports.
func mutableFields(pass *analysis.Pass, methods map[string]*ast.FuncDecl) map[string]bool {
	mutable := make(map[string]bool)
	for _, decl := range methods {
		if decl.Body == nil || decl.Recv == nil {
			continue
		}
		recv := receiverObject(pass, decl)
		if recv == nil {
			continue
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if f := rootField(pass, recv, lhs); f != "" {
						mutable[f] = true
					}
				}
			case *ast.IncDecStmt:
				if f := rootField(pass, recv, n.X); f != "" {
					mutable[f] = true
				}
			case *ast.UnaryExpr:
				if n.Op.String() == "&" {
					if f := rootField(pass, recv, n.X); f != "" {
						mutable[f] = true
					}
				}
			case *ast.SelectorExpr:
				if takesAddress(pass, n) {
					if f := rootField(pass, recv, n.X); f != "" {
						mutable[f] = true
					}
				}
			case *ast.CallExpr:
				// copy(p.f, ...) and append-into mutate through the slice.
				if analysis.IsBuiltin(pass.TypesInfo, n, "copy") && len(n.Args) > 0 {
					if f := rootField(pass, recv, n.Args[0]); f != "" {
						mutable[f] = true
					}
				}
			}
			return true
		})
	}
	return mutable
}

// takesAddress reports whether sel selects a pointer-receiver method on an
// operand that is not a pointer, which Go calls through the operand's address.
func takesAddress(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	if _, ptrRecv := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); !ptrRecv {
		return false
	}
	_, ptrOperand := s.Recv().Underlying().(*types.Pointer)
	return !ptrOperand
}

func receiverObject(pass *analysis.Pass, decl *ast.FuncDecl) types.Object {
	names := decl.Recv.List[0].Names
	if len(names) != 1 || names[0].Name == "_" {
		return nil
	}
	return pass.TypesInfo.Defs[names[0]]
}

// rootField walks expr down through selectors, indexes and slices to the
// receiver and returns the first field selected off it: p.entries[i].pc
// roots at field "entries".
func rootField(pass *analysis.Pass, recv types.Object, expr ast.Expr) string {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(e.X).(*ast.Ident); ok && pass.TypesInfo.Uses[id] == recv {
				return e.Sel.Name
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.SliceExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return ""
		}
	}
}

// exemptType reports types that cannot meaningfully serialize: functions
// and channels are wiring, not state.
func exemptType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Signature, *types.Chan:
		return true
	}
	return false
}
