package experiments

import (
	"fmt"
	"io"

	"bopsim/internal/stats"
	"bopsim/internal/trace"
)

// This file is the one place the figure names are mapped to Runner
// methods. cmd/experiments dispatches its -figN flags through
// TargetTables, and RenderTarget writes the same bytes for callers that
// want one target's text.

// TargetNames lists every renderable target in canonical output order
// (the order `experiments -all` prints; "wzoo" last, excluded from -all).
func TargetNames() []string {
	names := []string{"table1", "table2"}
	for i := 2; i <= 13; i++ {
		names = append(names, fmt.Sprintf("fig%d", i))
	}
	return append(names, "zoo", "wzoo")
}

// TargetTables builds the tables for one figure target. The static text
// targets ("table1", "table2") have no tables — render those through
// RenderTarget. quick only affects targets whose job set depends on it
// beyond the Runner's own configuration (fig8 samples fewer offsets).
//
// This is the one place a figure builder's failure (a buildError panic
// out of materialize) becomes an error: every caller that must survive a
// failed simulation renders through here.
func TargetTables(r *Runner, name string, quick bool) (tables []*stats.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			be, ok := p.(buildError)
			if !ok {
				panic(p)
			}
			tables, err = nil, be.error
		}
	}()
	one := func(tb *stats.Table) ([]*stats.Table, error) { return []*stats.Table{tb}, nil }
	switch name {
	case "fig2":
		return one(r.Fig2())
	case "fig3":
		return r.Fig3(), nil
	case "fig4":
		return one(r.Fig4())
	case "fig5":
		return one(r.Fig5())
	case "fig6":
		return one(r.Fig6())
	case "fig7":
		return one(r.Fig7())
	case "fig8":
		offsets := Fig8Offsets()
		if quick {
			offsets = nil
			for d := 2; d <= 256; d += 6 {
				offsets = append(offsets, d)
			}
		}
		return one(r.Fig8(offsets))
	case "fig9":
		return one(r.Fig9())
	case "fig10":
		return one(r.Fig10())
	case "fig11":
		return one(r.Fig11())
	case "fig12":
		return one(r.Fig12())
	case "fig13":
		return one(r.Fig13())
	case "zoo":
		return one(r.Zoo())
	case "wzoo":
		return one(r.WorkloadZoo())
	default:
		return nil, fmt.Errorf("experiments: unknown target %q (want one of %v)", name, TargetNames())
	}
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
	switch name {
	case "table1":
		fmt.Fprint(w, Table1())
		fmt.Fprintln(w)
		return nil
	case "table2":
		fmt.Fprint(w, Table2())
		fmt.Fprintln(w)
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
