package experiments

import (
	"fmt"
	"io"

	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// Target is one renderable output of cmd/experiments, which registers a
// -<Name> flag per entry of Targets: a static text table (Table 1 and 2)
// or a figure built on a Runner.
type Target struct {
	Name  string
	Usage string // the -<Name> flag's help line
	InAll bool   // rendered by -all

	text   func() string
	tables func(r *Runner, quick bool) []*stats.Table
}

// Targets lists every renderable target in canonical output order, the
// order `experiments -all` prints.
func Targets() []Target { return append([]Target(nil), targets...) }

// targets is the one place a target name is mapped to what renders it.
var targets = func() []Target {
	one := func(build func(*Runner) *stats.Table) func(*Runner, bool) []*stats.Table {
		return func(r *Runner, _ bool) []*stats.Table { return []*stats.Table{build(r)} }
	}
	fig := func(n int, tables func(*Runner, bool) []*stats.Table) Target {
		return Target{Name: fmt.Sprintf("fig%d", n), Usage: fmt.Sprintf("regenerate Figure %d", n), InAll: true, tables: tables}
	}
	fig8 := fig(8, func(r *Runner, quick bool) []*stats.Table {
		var offsets []int // nil: Fig8's full sample
		if quick {
			for d := 2; d <= 256; d += 6 {
				offsets = append(offsets, d)
			}
		}
		return []*stats.Table{r.Fig8(offsets)}
	})
	fig8.Usage += " (four fixed benchmark columns; -workloads does not apply)"
	return []Target{
		{Name: "table1", Usage: "print Table 1 (baseline microarchitecture)", InAll: true, text: Table1},
		{Name: "table2", Usage: "print Table 2 (BO parameters)", InAll: true, text: Table2},
		fig(2, one((*Runner).Fig2)),
		fig(3, func(r *Runner, _ bool) []*stats.Table { return r.Fig3() }),
		fig(4, one((*Runner).Fig4)),
		fig(5, one((*Runner).Fig5)),
		fig(6, one((*Runner).Fig6)),
		fig(7, one((*Runner).Fig7)),
		fig8,
		fig(9, one((*Runner).Fig9)),
		fig(10, one((*Runner).Fig10)),
		fig(11, one((*Runner).Fig11)),
		fig(12, one((*Runner).Fig12)),
		fig(13, one((*Runner).Fig13)),
		{Name: "zoo", Usage: "run every registered L2 prefetcher (the registry-driven ablation sweep)", InAll: true,
			tables: one((*Runner).Zoo)},
		// Deliberately not part of -all: the -all output stays
		// byte-identical to the pre-spec table set.
		{Name: "wzoo", Usage: "run every registered workload generator (the workload-axis registry sweep)",
			tables: one((*Runner).WorkloadZoo)},
		// Not part of -all either: 55 runs per workload and page size.
		{Name: "best-offset", Usage: "Figure 8 per workload: BO against every fixed offset of Table 2, a row per workload, a table per page size, 1 core",
			tables: func(r *Runner, _ bool) []*stats.Table { return r.BestOffset() }},
	}
}()

// TargetNames lists every renderable target in canonical output order
// ("wzoo" and "best-offset" last, excluded from -all).
func TargetNames() []string {
	return labels(targets, func(t Target) string { return t.Name })
}

// target looks a target up by name.
func target(name string) (Target, error) {
	for _, t := range targets {
		if t.Name == name {
			return t, nil
		}
	}
	return Target{}, fmt.Errorf("experiments: unknown target %q (want one of %v)", name, TargetNames())
}

// TargetTables builds the tables for one figure target. The static text
// targets ("table1", "table2") have no tables: they return nil, and render
// through RenderTarget. quick only affects targets whose job set depends
// on it beyond the Runner's own configuration (fig8 samples fewer offsets).
//
// This is the one place a figure builder's failure (a buildError panic
// out of materialize) becomes an error: every caller that must survive a
// failed simulation renders through here.
func TargetTables(r *Runner, name string, quick bool) (tables []*stats.Table, err error) {
	t, err := target(name)
	if err != nil || t.tables == nil {
		return nil, err
	}
	defer func() {
		if p := recover(); p != nil {
			be, ok := p.(buildError)
			if !ok {
				panic(p)
			}
			tables, err = nil, be.error
		}
	}()
	return t.tables(r, quick), nil
}

// QuickBenchmarks is the row subset quick mode uses (when no explicit
// workload list overrides it): every benchmark the paper's figures single
// out, plus compute-bound representatives so the GM stays meaningful.
// cmd/experiments' -quick trims through this function.
func QuickBenchmarks() []trace.Spec {
	want := map[string]bool{
		"403.gcc": true, "410.bwaves": true, "416.gamess": true,
		"429.mcf": true, "433.milc": true, "437.leslie3d": true,
		"450.soplex": true, "456.hmmer": true, "459.GemsFDTD": true,
		"462.libquantum": true, "465.tonto": true, "470.lbm": true,
		"471.omnetpp": true, "473.astar": true, "482.sphinx3": true,
		"483.xalancbmk": true,
	}
	var out []trace.Spec
	for _, b := range trace.Benchmarks() {
		if want[b] {
			out = append(out, trace.Spec{Name: b})
		}
	}
	return out
}

// RenderTarget runs one target on r and writes its canonical text
// rendering to w: exactly the bytes `experiments -<name>` prints to
// stdout for that target.
func RenderTarget(r *Runner, name string, quick bool, w io.Writer) error {
	t, err := target(name)
	if err != nil {
		return err
	}
	if t.text != nil {
		fmt.Fprintln(w, t.text())
		return nil
	}
	tables, err := TargetTables(r, name, quick)
	if err != nil {
		return err
	}
	for _, tb := range tables {
		tb.Render(w)
	}
	return nil
}
