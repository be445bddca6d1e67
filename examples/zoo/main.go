// Zoo demonstrates the prefetcher registry: it lists every registered L2
// prefetcher with its spec name, then runs each of them — by spec alone,
// never naming a concrete type — on one memory-bound workload and prints
// the speedup over the next-line baseline. A prefetcher registered from a
// new package (like internal/multi) appears here automatically; see
// internal/prefetch/all.
package main

import (
	"context"
	"fmt"
	"log"

	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// run executes one simulation to completion, exiting on error.
func run(o engine.Options) engine.Result {
	r, err := engine.Run(context.Background(), o)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func main() {
	fmt.Println("registered L2 prefetchers:")
	for _, name := range prefetch.L2Names() {
		fmt.Printf("  %-10s %s\n", name, prefetch.L2.Help(name))
	}
	fmt.Println("\nregistered DL1 prefetchers:")
	for _, name := range prefetch.L1Names() {
		fmt.Printf("  %-10s %s\n", name, prefetch.L1.Help(name))
	}

	base := engine.DefaultOptions("462.libquantum")
	base.Page = mem.Page4M
	base.Instructions = 250_000
	baseline := run(base)

	fmt.Printf("\n%s, %s, speedup vs next-line:\n", base.WorkloadLabel(), base.ConfigLabel())
	for _, name := range prefetch.L2Names() {
		o := base
		o.L2PF = prefetch.Spec{Name: name}
		r := run(o)
		fmt.Printf("  %-10s IPC %6.3f  speedup %5.3f\n", name, r.IPC, r.IPC/baseline.IPC)
	}

	// Parameterized variants are one spec string away.
	for _, spec := range []string{"offset:d=4", "bo:badscore=5", "multi:offsets=1+2+4+8"} {
		o := base
		o.L2PF = prefetch.MustSpec(spec)
		r := run(o)
		fmt.Printf("  %-22s IPC %6.3f  speedup %5.3f\n", spec, r.IPC, r.IPC/baseline.IPC)
	}
}
