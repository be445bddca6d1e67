// Quickstart: run one memory-bound workload with the baseline next-line L2
// prefetcher and with the Best-Offset prefetcher, and print the speedup and
// the offset BO learned. This is the smallest end-to-end use of the
// simulator API.
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
	base := engine.DefaultOptions("462.libquantum")
	base.Page = mem.Page4M
	base.Instructions = 400_000

	nextLine := run(base)

	boOpts := base
	boOpts.L2PF = prefetch.MustSpec("bo")
	bo := run(boOpts)

	fmt.Printf("workload: %s (%s)\n", base.WorkloadLabel(), base.ConfigLabel())
	fmt.Printf("next-line prefetcher: IPC %.3f\n", nextLine.IPC)
	fmt.Printf("Best-Offset:          IPC %.3f (learned offset %d)\n", bo.IPC, bo.FinalBOOffset)
	fmt.Printf("speedup:              %.3f\n", bo.IPC/nextLine.IPC)
	fmt.Printf("\nBO learning: %d phases, %d RR insertions, prefetch off in %d phases\n",
		bo.BO.Phases, bo.BO.RRInsertions, bo.BO.PhasesOff)
}
