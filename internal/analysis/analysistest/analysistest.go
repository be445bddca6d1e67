// Package analysistest runs a bovet analyzer over fixture packages and
// checks its findings against expectations written in the fixtures
// themselves, mirroring golang.org/x/tools/go/analysis/analysistest on the
// standard library only.
//
// Fixtures live under a testdata directory that is its own Go module named
// bopsim, so fixture import paths land in the same bopsim/internal/...
// namespace the package classifier (config.go) keys on, while the repo's
// real build never sees them (testdata is invisible to ./... patterns and
// the nested go.mod fences it off). Expected findings are trailing comments
// of the form
//
//	code() // want "regexp"
//	twoFindings() // want "first" "second"
//
// where each quoted (or backquoted) Go string literal is a regular
// expression that must match a finding reported on that line. Lines without
// a want comment must produce no findings. Because fixtures run through the
// same analysis.Runner as cmd/bovet, //bovet:allow directives in
// fixtures are honored — a fixture line carrying an allow directive and no
// want comment asserts that suppression works.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bopsim/internal/analysis"
)

// Run loads the nested fixture module rooted at testdata, applies the
// analyzer to the packages matched by patterns (default ./...), and reports
// every mismatch between findings and want comments as a test error.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	RunSuite(t, testdata, []*analysis.Analyzer{a}, nil, patterns...)
}

// RunSuite is Run for a whole analyzer suite sharing one pass over the
// fixtures — what deadallow needs (it judges the other analyzers' allow
// ledger) and what any cross-analyzer interaction test needs. known, when
// non-nil, is the set of analyzer names //bovet:allow directives may cite
// without being flagged as unknown; it lets a fixture carry a directive for
// an analyzer that is deliberately not active this run.
func RunSuite(t *testing.T, testdata string, suite, known []*analysis.Analyzer, patterns ...string) {
	t.Helper()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := filepath.Abs(testdata)
	if err != nil {
		t.Fatalf("resolving %s: %v", testdata, err)
	}
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, dir, patterns)
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no fixture packages under %s match %v", dir, patterns)
	}
	runner := &analysis.Runner{Suite: suite, Known: known}
	findings, err := runner.Run(pkgs)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}

	wants := collectWants(t, fset, pkgs)
	for _, f := range findings {
		if !wants.match(f.Posn.Filename, f.Posn.Line, f.Message) {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants.all {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched `// want %q`", w.file, w.line, w.re)
		}
	}
}

// want is one expectation: a regexp that must match a finding on its line.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct {
	all []*want
}

// match consumes the first unmatched expectation on file:line whose regexp
// matches the message.
func (ws *wantSet) match(file string, line int, message string) bool {
	for _, w := range ws.all {
		if w.matched || w.file != file || w.line != line {
			continue
		}
		if w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans every fixture file's comments for want expectations.
func collectWants(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, group := range file.Comments {
				for _, c := range group.List {
					// The marker may open the comment or trail other text:
					// a //bovet:allow directive occupies its whole line, so
					// a deadallow fixture embeds the expectation for the
					// finding reported *on the directive itself* after the
					// directive's reason.
					idx := strings.Index(c.Text, "// want ")
					if idx < 0 {
						continue
					}
					text := c.Text[idx+len("// want "):]
					posn := fset.Position(c.Pos())
					for _, lit := range stringLiterals(text) {
						pattern, err := strconv.Unquote(lit)
						if err != nil {
							t.Fatalf("%s: malformed want literal %s: %v", posn, lit, err)
						}
						re, err := regexp.Compile(pattern)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", posn, pattern, err)
						}
						ws.all = append(ws.all, &want{file: posn.Filename, line: posn.Line, re: re})
					}
				}
			}
		}
	}
	return ws
}

// stringLiterals splits a want payload into its Go string literals
// (double-quoted with escapes, or backquoted).
func stringLiterals(s string) []string {
	var out []string
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			j := i + 1
			for j < len(s) && s[j] != '"' {
				if s[j] == '\\' {
					j++
				}
				j++
			}
			if j < len(s) {
				out = append(out, s[i:j+1])
				i = j
			}
		case '`':
			if j := strings.IndexByte(s[i+1:], '`'); j >= 0 {
				out = append(out, s[i:i+j+2])
				i += j + 1
			}
		}
	}
	return out
}
