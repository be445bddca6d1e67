package core_test

import (
	"fmt"

	"bopsim/internal/core"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Example demonstrates the Best-Offset prefetcher against a toy memory
// system: a sequential line stream whose prefetches complete 10 accesses
// after being issued. BO must learn an offset larger than 10 so that
// prefetched lines arrive before the demand stream reaches them.
func Example() {
	bo := core.New(mem.Page4M, core.DefaultParams())

	var inFlight []mem.LineAddr // prefetches waiting to "complete"
	const lag = 10

	for x := mem.LineAddr(0); x < 150_000; x++ {
		// Every line access misses the L2 in this toy setup.
		targets := bo.OnAccess(prefetch.AccessInfo{Line: x})
		inFlight = append(inFlight, targets...)
		// A prefetch completes lag accesses after it was issued: only then
		// is its base address recorded in the RR table.
		if len(inFlight) > lag {
			bo.OnFill(inFlight[0], true)
			inFlight = inFlight[1:]
		}
	}

	fmt.Println("prefetch on:", bo.Enabled())
	fmt.Println("offset covers the lag:", bo.Offset() > lag)
	// Output:
	// prefetch on: true
	// offset covers the lag: true
}

// ExampleParams shows the Table 2 defaults and an extension configuration.
// An extension is a "bo" spec string; parameters left at their Table 2
// default drop out of its canonical form.
func ExampleParams() {
	p := core.DefaultParams()
	fmt.Println("SCOREMAX:", p.ScoreMax)
	fmt.Println("ROUNDMAX:", p.RoundMax)
	fmt.Println("BADSCORE:", p.BadScore)
	fmt.Println("offsets:", len(p.Offsets))

	ext, err := prefetch.NormalizeL2(prefetch.MustSpec("bo:degree=2,badscore=1"))
	if err != nil {
		panic(err)
	}
	fmt.Println("degree-2:", ext)
	// Output:
	// SCOREMAX: 31
	// ROUNDMAX: 100
	// BADSCORE: 1
	// offsets: 52
	// degree-2: bo:degree=2
}
