// Command bovet runs the repo's custom static-analysis suite: the four
// analyzers that mechanically enforce the simulator's determinism
// (nondeterm), checkpoint completeness (statecodec), zero-alloc hot loops
// (hotalloc) and allow-inventory hygiene (deadallow). See DESIGN.md
// "Static invariants". Cross-package reasoning — taint and allocation
// summaries flowing from dependency to importer — rides the facts layer;
// packages are analyzed in dependency order.
//
//	go run ./cmd/bovet ./...
//	bovet -json ./internal/uncore
//	bovet -analyzers nondeterm,hotalloc ./...
//
// Exit status is 0 when the tree is clean, 2 when any diagnostic survives,
// 1 on operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"strings"

	"bopsim/internal/analysis"
	"bopsim/internal/analysis/deadallow"
	"bopsim/internal/analysis/hotalloc"
	"bopsim/internal/analysis/nondeterm"
	"bopsim/internal/analysis/statecodec"
)

var suite = []*analysis.Analyzer{
	nondeterm.Analyzer,
	statecodec.Analyzer,
	hotalloc.Analyzer,
	deadallow.Analyzer,
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("bovet", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit findings as JSON, sorted by (package, file, line, analyzer)")
	list := fs.Bool("list", false, "list the analyzers and exit")
	selected := fs.String("analyzers", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: bovet [-json] [-analyzers a,b] [packages]\n\nAnalyzers:\n")
		for _, a := range suite {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])
	if *list {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	active, err := selectAnalyzers(*selected)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, "", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	runner := &analysis.Runner{Suite: active, Known: suite}
	findings, err := runner.Run(pkgs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bovet:", err)
		return 1
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(findingsJSON(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "bovet:", err)
			return 1
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, f)
		}
	}
	if len(findings) > 0 {
		return 2
	}
	return 0
}

// selectAnalyzers resolves the -analyzers flag against the suite. An
// unknown name is an operational error naming the available set — a typo
// must not silently run nothing (or everything).
func selectAnalyzers(names string) ([]*analysis.Analyzer, error) {
	if names == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	available := make([]string, 0, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
		available = append(available, a.Name)
	}
	var active []*analysis.Analyzer
	seen := make(map[string]bool)
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (available: %s)", name, strings.Join(available, ", "))
		}
		if !seen[name] {
			seen[name] = true
			active = append(active, a)
		}
	}
	if len(active) == 0 {
		return nil, fmt.Errorf("-analyzers selected nothing (available: %s)", strings.Join(available, ", "))
	}
	return active, nil
}

type findingJSON struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	Position string `json:"position"`
	Message  string `json:"message"`
}

func findingsJSON(fs []analysis.Finding) []findingJSON {
	out := make([]findingJSON, 0, len(fs))
	for _, f := range fs {
		out = append(out, findingJSON{Analyzer: f.Analyzer, Package: f.Pkg, Position: f.Posn.String(), Message: f.Message})
	}
	return out
}
