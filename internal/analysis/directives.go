package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// bovet's annotation grammar lives in line comments:
//
//	//bovet:hotpath
//	    On a function declaration's doc comment: marks the function a
//	    hot-loop root for the hotalloc analyzer. Everything statically
//	    reachable from it — same-package calls followed directly,
//	    cross-package calls through their Allocates facts — must be
//	    allocation-free.
//
//	//bovet:allow <analyzer>[,<analyzer>] <reason>
//	    On (or on the line directly above) an offending line: suppresses the
//	    named analyzers' diagnostics for that line. The reason is mandatory —
//	    an allow is a reviewed, justified exception, not a mute button — and
//	    a malformed or unknown-analyzer directive is itself reported, so a
//	    typo cannot silently fail to suppress. A directive that suppresses
//	    nothing is reported by the deadallow analyzer, so the allow
//	    inventory cannot rot.
//
// Like go:build and go:generate, the directives use the no-space
// comment form ("//bovet:...") so gofmt leaves them alone.

const (
	allowPrefix   = "//bovet:allow"
	hotpathMarker = "//bovet:hotpath"
	anyPrefix     = "//bovet:"
)

// HasHotpathDirective reports whether the function declaration is annotated
// as a hot-loop root.
func HasHotpathDirective(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if c.Text == hotpathMarker || strings.HasPrefix(c.Text, hotpathMarker+" ") {
			return true
		}
	}
	return false
}

// allowEntry is one parsed //bovet:allow directive.
type allowEntry struct {
	pos      token.Pos
	names    []string
	spelling string // the analyzer list as written, for messages
	used     bool   // suppressed at least one diagnostic or Allowed query
}

type fileLine struct {
	file string
	line int
}

// allowSet records which analyzers are suppressed on which lines and
// tracks which directives earned their keep.
type allowSet struct {
	byLine  map[fileLine][]*allowEntry
	entries []*allowEntry // file order, for deterministic deadallow output
}

// suppresses reports whether an allow directive for the analyzer covers the
// diagnostic position — same line, or the line directly above (a standalone
// directive comment) — and marks the covering directive used.
func (s *allowSet) suppresses(analyzer string, posn token.Position) bool {
	if s == nil {
		return false
	}
	for _, key := range []fileLine{{posn.Filename, posn.Line}, {posn.Filename, posn.Line - 1}} {
		for _, e := range s.byLine[key] {
			for _, name := range e.names {
				if name == analyzer {
					e.used = true
					return true
				}
			}
		}
	}
	return false
}

// parseAllows extracts every //bovet: directive from the files. Malformed
// directives — unknown verb, unknown analyzer name, missing reason — come
// back as findings under the pseudo-analyzer "bovet"; those are never
// suppressible.
func parseAllows(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (*allowSet, []Finding) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := &allowSet{byLine: make(map[fileLine][]*allowEntry)}
	var bad []Finding
	report := func(pos token.Pos, msg string) {
		bad = append(bad, Finding{Analyzer: "bovet", Posn: fset.Position(pos), Message: msg})
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				switch {
				case c.Text == hotpathMarker, strings.HasPrefix(c.Text, hotpathMarker+" "):
					// Validated where it is consumed (hotalloc); nothing to
					// record here.
				case strings.HasPrefix(c.Text, allowPrefix):
					parseAllow(fset, c, known, allows, report)
				case strings.HasPrefix(c.Text, anyPrefix):
					report(c.Pos(), "unknown bovet directive "+firstWord(c.Text)+" (known: allow, hotpath)")
				}
			}
		}
	}
	return allows, bad
}

func parseAllow(fset *token.FileSet, c *ast.Comment, known map[string]bool, allows *allowSet, report func(token.Pos, string)) {
	rest := strings.TrimPrefix(c.Text, allowPrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		report(c.Pos(), "unknown bovet directive "+firstWord(c.Text)+" (known: allow, hotpath)")
		return
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		report(c.Pos(), "bovet:allow needs an analyzer name and a justifying reason: //bovet:allow <analyzer> <reason>")
		return
	}
	names := strings.Split(fields[0], ",")
	for _, name := range names {
		if !known[name] {
			report(c.Pos(), "bovet:allow names unknown analyzer "+name)
			return
		}
	}
	if len(fields) < 2 {
		report(c.Pos(), "bovet:allow "+fields[0]+" has no justifying reason; an exception must say why it is sound")
		return
	}
	posn := fset.Position(c.Pos())
	entry := &allowEntry{pos: c.Pos(), names: names, spelling: fields[0]}
	key := fileLine{posn.Filename, posn.Line}
	allows.byLine[key] = append(allows.byLine[key], entry)
	allows.entries = append(allows.entries, entry)
}

func firstWord(s string) string {
	if i := strings.IndexAny(s, " \t"); i >= 0 {
		return s[:i]
	}
	return s
}
