// Package schemalock pins the serialized layouts the repo's compatibility
// promises rest on. Three byte formats outlive a single process: engine
// checkpoints (gob snapshot payload, governed by engine.SnapshotVersion),
// the distrib wire protocol (JSON request/response structs, governed by
// distrib.ProtocolVersion), and the experiments result cache (JSON
// CacheEntry files — doubling as the distrib result payload — governed by
// the result-cache version). Each is guarded by a version constant that a
// human must bump when the layout changes; before this analyzer, nothing
// checked that they actually did, and a forgotten bump surfaces as silent
// corruption (a restored checkpoint decoding garbage, a worker poisoning a
// shared cache) rather than a refused version.
//
// schemalock derives the serialized field-set of every governed struct and
// diffs it against the committed schema.lock (this package's schema.lock
// file, embedded at build time). Structs are governed when they are:
//
//   - encoded or decoded with encoding/gob or encoding/json in a
//     result-affecting package (infra packages serialize plenty of
//     ephemeral JSON — status endpoints, journals — that carries no
//     cross-version promise);
//   - a named struct in the signature of a SaveState/RestoreState method
//     (the checkpoint contract's state-mirror types, e.g. cpu.State);
//   - annotated //bovet:schemalock (the explicit root for structs whose
//     encoding happens in another package — cpu.Config inside the warmup
//     signature, the distrib wire structs, experiments.CacheEntry);
//   - reachable from any of the above through field types: the closure
//     follows slices, arrays, maps, pointers and anonymous structs, locks
//     same-package named structs transitively, and requires named structs
//     from other module packages to be locked in their own package
//     (checked via the LockedSet package fact, so the chain engine.snapshot
//     → cpu.State → cpu.Config is validated end to end across package
//     boundaries).
//
// A drifted layout, a governed type missing from the lock, a stale lock
// entry, or a version constant disagreeing with the lock header are all
// findings; the fix is `make schema-lock`, whose generator (Collected,
// driven by cmd/bovet -write-schema-lock) refuses to regenerate a domain's
// sections unless its version constant was bumped — so the analyzer
// catches drift and the generator enforces the bump, and the committed
// lock is the reviewed record tying layout to version.
package schemalock

import (
	"bufio"
	"bytes"
	_ "embed"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"bopsim/internal/analysis"
)

// Analyzer is the schemalock pass.
var Analyzer = &analysis.Analyzer{
	Name:      "schemalock",
	Doc:       "serialized layouts (checkpoint, wire, cache) must match the committed schema.lock, and layout changes must bump the governing version constant",
	Run:       run,
	FactTypes: []analysis.Fact{(*LockedSet)(nil)},
}

// LockedSet is exported by every analyzed package and names the struct
// types whose serialized layout that package locks. An importer whose
// locked struct embeds a struct from this package checks membership here,
// which is what lets the closure cross package boundaries soundly.
type LockedSet struct {
	Types []string
}

// AFact marks LockedSet as a fact type.
func (*LockedSet) AFact() {}

//go:embed schema.lock
var embeddedLock string

var lockState struct {
	sync.Mutex
	raw    string
	parsed *lockFile
	err    error
}

// OverrideLockForTest replaces the embedded schema.lock until the returned
// restore function runs. Fixture tests use it to pit fixture packages
// against a fixture lock.
func OverrideLockForTest(data string) (restore func()) {
	lockState.Lock()
	defer lockState.Unlock()
	prev := lockState.raw
	lockState.raw, lockState.parsed, lockState.err = data, nil, nil
	return func() {
		lockState.Lock()
		defer lockState.Unlock()
		lockState.raw, lockState.parsed, lockState.err = prev, nil, nil
	}
}

func currentLock() (*lockFile, error) {
	lockState.Lock()
	defer lockState.Unlock()
	if lockState.raw == "" && lockState.parsed == nil && lockState.err == nil {
		lockState.raw = embeddedLock
	}
	if lockState.parsed == nil && lockState.err == nil {
		lockState.parsed, lockState.err = parseLock(lockState.raw)
	}
	return lockState.parsed, lockState.err
}

// versionConsts maps the three packages that define a governing version
// constant to the lock-header key recording it.
var versionConsts = map[string]struct {
	header    string
	constName string
}{
	"bopsim/internal/engine":      {"snapshot-version", "SnapshotVersion"},
	"bopsim/internal/distrib":     {"protocol-version", "ProtocolVersion"},
	"bopsim/internal/experiments": {"result-cache-version", "resultCacheVersion"},
}

// domainOf returns the lock-header version key governing a package's
// sections and the human name of the constant to bump.
func domainOf(pkgPath string) (header, constRef string) {
	switch pkgPath {
	case "bopsim/internal/distrib":
		return "protocol-version", "distrib.ProtocolVersion"
	case "bopsim/internal/experiments":
		return "result-cache-version", "the result-cache version (experiments.resultCacheVersion)"
	default:
		return "snapshot-version", "engine.SnapshotVersion"
	}
}

func run(pass *analysis.Pass) error {
	s := derive(pass)
	pass.ExportPackageFact(&LockedSet{Types: s.names()})
	if len(s.order) == 0 && !definesVersionConst(pass) {
		return nil
	}
	lock, err := currentLock()
	if err != nil {
		if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Package, "schema.lock is unreadable: %v; run `make schema-lock`", err)
		}
		return nil
	}

	pkgPath := pass.Pkg.Path()
	_, constRef := domainOf(pkgPath)
	for _, name := range s.order {
		key := pkgPath + "." + name
		locked, ok := lock.sections[key]
		if !ok {
			pass.Reportf(s.pos[name], "serialized layout of %s is not recorded in schema.lock; run `make schema-lock` (bumping %s if the layout of already-released data changed)", name, constRef)
			continue
		}
		if d := diffLines(locked, s.fields[name]); d != "" {
			pass.Reportf(s.pos[name], "serialized layout of %s differs from schema.lock (%s); bump %s and run `make schema-lock`", name, d, constRef)
		}
	}
	for _, name := range lock.byPkg[pkgPath] {
		if _, ok := s.fields[name]; !ok {
			pos := token.NoPos
			if len(pass.Files) > 0 {
				pos = pass.Files[0].Package
			}
			pass.Reportf(pos, "schema.lock records %s.%s, which is no longer a governed serialized type; run `make schema-lock`", pkgPath, name)
		}
	}

	if vc, ok := versionConsts[pkgPath]; ok {
		if obj, val, pos := lookupIntConst(pass, vc.constName); obj {
			if recorded, ok := lock.versions[vc.header]; ok && recorded != val {
				pass.Reportf(pos, "schema.lock was generated for %s = %d but source declares %d; run `make schema-lock` to re-record the layouts this version governs", vc.constName, recorded, val)
			}
		}
	}
	return nil
}

func definesVersionConst(pass *analysis.Pass) bool {
	_, ok := versionConsts[pass.Pkg.Path()]
	return ok
}

// lookupIntConst resolves a package-scope integer constant's value and
// declaration position.
func lookupIntConst(pass *analysis.Pass, name string) (found bool, val int, pos token.Pos) {
	obj := pass.Pkg.Scope().Lookup(name)
	c, ok := obj.(*types.Const)
	if !ok {
		return false, 0, token.NoPos
	}
	v, ok := constant.Int64Val(constant.ToInt(c.Val()))
	if !ok {
		return false, 0, token.NoPos
	}
	return true, int(v), c.Pos()
}

// diffLines summarizes the first divergence between the locked and derived
// field lines, so the finding says what moved instead of just "differs".
func diffLines(locked, derived []string) string {
	if len(locked) == len(derived) {
		same := true
		for i := range locked {
			if locked[i] != derived[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	lockedSet := make(map[string]bool, len(locked))
	for _, l := range locked {
		lockedSet[l] = true
	}
	derivedSet := make(map[string]bool, len(derived))
	for _, l := range derived {
		derivedSet[l] = true
	}
	var added, removed []string
	for _, l := range derived {
		if !lockedSet[l] {
			added = append(added, strings.Fields(l)[0])
		}
	}
	for _, l := range locked {
		if !derivedSet[l] {
			removed = append(removed, strings.Fields(l)[0])
		}
	}
	switch {
	case len(added) > 0 && len(removed) > 0:
		return fmt.Sprintf("changed or added: %s; removed or changed: %s", strings.Join(added, ", "), strings.Join(removed, ", "))
	case len(added) > 0:
		return "added or changed: " + strings.Join(added, ", ")
	case len(removed) > 0:
		return "removed or changed: " + strings.Join(removed, ", ")
	default:
		return "field order changed"
	}
}

// schema is one package's derived lock content.
type schema struct {
	order  []string // locked type names, sorted
	fields map[string][]string
	pos    map[string]token.Pos
}

func (s *schema) names() []string { return append([]string(nil), s.order...) }

// encoderFuncs are the calls whose struct arguments are serialization
// roots, keyed by defining package then function/method name.
var encoderFuncs = map[string]map[string]bool{
	"encoding/json": {"Marshal": true, "MarshalIndent": true, "Unmarshal": true, "Encode": true, "Decode": true},
	"encoding/gob":  {"Encode": true, "Decode": true, "EncodeValue": true, "DecodeValue": true},
}

// derive computes the package's governed types and their serialized field
// lines, reporting cross-package references to unlocked structs as it goes.
func derive(pass *analysis.Pass) *schema {
	s := &schema{fields: make(map[string][]string), pos: make(map[string]token.Pos)}
	roots := make(map[string]bool)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declHas := analysis.HasSchemalockDirective(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declHas || analysis.HasSchemalockDirective(ts.Doc) {
					if _, isStruct := ts.Type.(*ast.StructType); !isStruct {
						pass.Reportf(ts.Name.Pos(), "//bovet:schemalock applies to struct types; %s is not a struct", ts.Name.Name)
						continue
					}
					roots[ts.Name.Name] = true
				}
			}
		}
	}

	if analysis.ResultAffecting(pass.Pkg.Path()) {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				codecSignatureRoots(pass, fd, roots)
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := analysis.FuncFor(pass.TypesInfo, call)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					if names, ok := encoderFuncs[fn.Pkg().Path()]; !ok || !names[fn.Name()] {
						return true
					}
					for _, arg := range call.Args {
						if name := localStructName(pass, pass.TypesInfo.TypeOf(arg)); name != "" {
							roots[name] = true
						}
					}
					return true
				})
			}
		}
	}

	// Close over field types, locking same-package named structs and
	// validating cross-package ones against their LockedSet fact. The
	// worklist is drained in sorted order so the derived sections — and
	// the findings — are deterministic.
	locked := make(map[string]bool)
	queue := sortedKeys(roots)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if locked[name] {
			continue
		}
		obj, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := types.Unalias(obj.Type()).Underlying().(*types.Struct)
		if !ok {
			continue
		}
		locked[name] = true
		s.pos[name] = obj.Pos()
		var more []string
		s.fields[name] = renderStruct(pass, obj.Pos(), st, &more)
		sort.Strings(more)
		queue = append(queue, more...)
	}
	s.order = sortedKeys(locked)
	return s
}

// codecSignatureRoots adds named structs appearing in a SaveState result or
// RestoreState parameter — the checkpoint contract's state-mirror types.
func codecSignatureRoots(pass *analysis.Pass, fd *ast.FuncDecl, roots map[string]bool) {
	if fd.Recv == nil {
		return
	}
	var fields *ast.FieldList
	switch fd.Name.Name {
	case "SaveState":
		fields = fd.Type.Results
	case "RestoreState":
		fields = fd.Type.Params
	default:
		return
	}
	if fields == nil {
		return
	}
	for _, f := range fields.List {
		if name := localStructName(pass, pass.TypesInfo.TypeOf(f.Type)); name != "" {
			roots[name] = true
		}
	}
}

// localStructName returns the name of t (pointers stripped) when it is a
// named struct declared in the package under analysis.
func localStructName(pass *analysis.Pass, t types.Type) string {
	for {
		p, ok := types.Unalias(t).(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() != pass.Pkg {
		return ""
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return ""
	}
	return named.Obj().Name()
}

// renderStruct renders the exported fields of st as lock lines, appending
// newly discovered same-package struct names to more.
func renderStruct(pass *analysis.Pass, pos token.Pos, st *types.Struct, more *[]string) []string {
	var lines []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue // gob and json both skip unexported fields
		}
		line := f.Name() + " " + renderType(pass, pos, f.Type(), more)
		if tag := st.Tag(i); tag != "" {
			line += " `" + tag + "`"
		}
		lines = append(lines, line)
	}
	return lines
}

// renderType produces the deterministic lock spelling of a field type.
// Same-package named structs render by bare name (and join the closure);
// named structs from other module packages render fully qualified and must
// be locked in their own package; named non-structs render with their
// underlying type, so `type PageSize int` changing to int64 is drift.
func renderType(pass *analysis.Pass, pos token.Pos, t types.Type, more *[]string) string {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		obj := t.Obj()
		pkg := obj.Pkg()
		if pkg == nil {
			return t.String() // error and other universe types
		}
		if _, isStruct := t.Underlying().(*types.Struct); isStruct {
			switch {
			case pkg == pass.Pkg:
				*more = append(*more, obj.Name())
				return obj.Name()
			case analysis.ModulePackage(pkg.Path()):
				var ls LockedSet
				if !pass.ImportPackageFact(pkg.Path(), &ls) || !containsString(ls.Types, obj.Name()) {
					pass.Reportf(pos, "serialized field references %s.%s, which is not schema-locked in its package; annotate it //bovet:schemalock so its layout is governed too", pkg.Path(), obj.Name())
				}
				return pkg.Path() + "." + obj.Name()
			default:
				return pkg.Path() + "." + obj.Name() // stdlib struct: its encoding is the stdlib's promise
			}
		}
		// Named non-struct: spell out the underlying representation.
		prefix := obj.Name()
		if pkg != pass.Pkg {
			prefix = pkg.Path() + "." + obj.Name()
		}
		return prefix + "=" + renderType(pass, pos, t.Underlying(), more)
	case *types.Pointer:
		return "*" + renderType(pass, pos, t.Elem(), more)
	case *types.Slice:
		return "[]" + renderType(pass, pos, t.Elem(), more)
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), renderType(pass, pos, t.Elem(), more))
	case *types.Map:
		return "map[" + renderType(pass, pos, t.Key(), more) + "]" + renderType(pass, pos, t.Elem(), more)
	case *types.Struct:
		inner := renderStruct(pass, pos, t, more)
		return "struct{" + strings.Join(inner, "; ") + "}"
	case *types.Basic:
		return t.Name()
	default:
		// Interfaces, channels, funcs: not serializable layouts; record the
		// spelling so a change is still drift.
		return types.TypeString(t, func(p *types.Package) string { return p.Path() })
	}
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// lockFile is the parsed schema.lock.
type lockFile struct {
	versions map[string]int
	sections map[string][]string // "pkgPath.Type" -> field lines
	byPkg    map[string][]string // pkgPath -> type names, file order
}

func parseLock(data string) (*lockFile, error) {
	lf := &lockFile{
		versions: make(map[string]int),
		sections: make(map[string][]string),
		byPkg:    make(map[string][]string),
	}
	var current string
	sc := bufio.NewScanner(strings.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimRight(sc.Text(), " \t")
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "[") && strings.HasSuffix(line, "]"):
			current = line[1 : len(line)-1]
			pkg, typeName, ok := splitSectionKey(current)
			if !ok {
				return nil, fmt.Errorf("line %d: malformed section header %q", lineNo, line)
			}
			if _, dup := lf.sections[current]; dup {
				return nil, fmt.Errorf("line %d: duplicate section %q", lineNo, line)
			}
			lf.sections[current] = nil
			lf.byPkg[pkg] = append(lf.byPkg[pkg], typeName)
		case current == "":
			key, value, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("line %d: malformed header line %q", lineNo, line)
			}
			var v int
			if _, err := fmt.Sscanf(value, "%d", &v); err != nil {
				return nil, fmt.Errorf("line %d: header %s: %v", lineNo, key, err)
			}
			lf.versions[key] = v
		default:
			lf.sections[current] = append(lf.sections[current], line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return lf, nil
}

// splitSectionKey splits "bopsim/internal/engine.snapshot" at the last dot
// after the final slash, so package paths containing dots stay intact.
func splitSectionKey(key string) (pkg, typeName string, ok bool) {
	slash := strings.LastIndexByte(key, '/')
	dot := strings.IndexByte(key[slash+1:], '.')
	if dot < 0 {
		return "", "", false
	}
	dot += slash + 1
	return key[:dot], key[dot+1:], true
}

// Collected accumulates derived sections across an entire run, for the
// `make schema-lock` generator (cmd/bovet -write-schema-lock).
type Collected struct {
	Sections map[string][]string
	Versions map[string]int
}

// NewCollector returns an empty accumulator.
func NewCollector() *Collected {
	return &Collected{Sections: make(map[string][]string), Versions: make(map[string]int)}
}

// Analyzer returns the derivation-only pass feeding the collector. It keeps
// the name "schemalock" so //bovet:allow schemalock directives bind to it,
// and still exports LockedSet facts so the cross-package closure checks run
// during generation too — an incomplete lock cannot be generated silently.
func (c *Collected) Analyzer() *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:      Analyzer.Name,
		Doc:       "derive schema.lock sections (generator mode)",
		FactTypes: []analysis.Fact{(*LockedSet)(nil)},
		Run: func(pass *analysis.Pass) error {
			s := derive(pass)
			pass.ExportPackageFact(&LockedSet{Types: s.names()})
			for _, name := range s.order {
				c.Sections[pass.Pkg.Path()+"."+name] = s.fields[name]
			}
			if vc, ok := versionConsts[pass.Pkg.Path()]; ok {
				if found, val, _ := lookupIntConst(pass, vc.constName); found {
					c.Versions[vc.header] = val
				}
			}
			return nil
		},
	}
}

// CheckBump compares the freshly derived sections against the previous
// lock and refuses regeneration when a version domain's sections changed
// without its version constant changing. This is the other half of the
// enforcement: the analyzer catches drift against the committed lock, the
// generator makes the bump a precondition of committing a new one.
func (c *Collected) CheckBump(old []byte) error {
	if len(bytes.TrimSpace(old)) == 0 {
		return nil // first generation
	}
	prev, err := parseLock(string(old))
	if err != nil {
		return nil // unparseable old lock: regenerating is the fix
	}
	changed := make(map[string][]string) // header key -> changed section keys
	note := func(key string) {
		pkg, _, _ := splitSectionKey(key)
		header, _ := domainOf(pkg)
		changed[header] = append(changed[header], key)
	}
	for key, lines := range c.Sections {
		if prevLines, ok := prev.sections[key]; !ok || diffLines(prevLines, lines) != "" {
			note(key)
		}
	}
	for key := range prev.sections {
		if _, ok := c.Sections[key]; !ok {
			note(key)
		}
	}
	var errs []string
	for header, keys := range changed {
		prevV, had := prev.versions[header]
		if had && prevV == c.Versions[header] {
			sort.Strings(keys)
			errs = append(errs, fmt.Sprintf("%s sections changed (%s) but %s is still %d; bump the version constant first",
				header, strings.Join(keys, ", "), header, prevV))
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		return fmt.Errorf("refusing to regenerate schema.lock:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// Format renders the lock file: version header, then sections sorted by
// key, fields in declaration order. Byte-stable for identical input.
func (c *Collected) Format() []byte {
	var b bytes.Buffer
	b.WriteString("# schema.lock — serialized layouts governed by version constants.\n")
	b.WriteString("# Generated by `make schema-lock`; do not edit by hand.\n")
	b.WriteString("# The schemalock analyzer (cmd/bovet) fails when source drifts from\n")
	b.WriteString("# this file; the generator refuses to regenerate a domain's sections\n")
	b.WriteString("# unless its version constant was bumped.\n")
	for _, header := range []string{"snapshot-version", "protocol-version", "result-cache-version"} {
		if v, ok := c.Versions[header]; ok {
			fmt.Fprintf(&b, "%s %d\n", header, v)
		}
	}
	keys := make([]string, 0, len(c.Sections))
	for k := range c.Sections {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\n[%s]\n", k)
		for _, line := range c.Sections[k] {
			b.WriteString(line + "\n")
		}
	}
	return b.Bytes()
}
