// Command tracegen records a synthetic workload's instruction stream into a
// trace file that bosim can replay (the "file" workload), decoupling trace
// generation from simulation exactly like the paper's Pin-based flow.
//
// Usage:
//
//	tracegen -workload 433.milc -n 1000000 -o milc.trace
//	bosim -workload file:path=milc.trace -l2pf bo
package main

import (
	"flag"
	"fmt"
	"os"

	"bopsim/internal/trace"
)

func main() {
	var (
		workload = flag.String("workload", "462.libquantum", "workload spec to record (any registered generator)")
		n        = flag.Uint64("n", 1_000_000, "instructions to record")
		out      = flag.String("o", "", "output trace file (required)")
		seed     = flag.Uint64("seed", 1, "generator seed")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o is required")
		os.Exit(2)
	}
	sp, err := trace.ParseSpec(*workload)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	gen, err := trace.NewGenerator(sp, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	if err := trace.WriteTraceFile(*out, gen, *n); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d instructions of %s to %s\n", *n, *workload, *out)
}
