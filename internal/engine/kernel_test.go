package engine_test

import (
	"testing"

	"bopsim/internal/core"
	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
)

// TestKernelThrottling is Figure 13's claim checked on kernels with no
// pattern to learn rather than on the stand-ins: Best-Offset's BADSCORE
// throttle keeps it from adding DRAM traffic where no offset helps, and an
// unthrottled next-line prefetcher does not.
//
// The bound. BO starts on, as a next-line prefetcher, and at the end of each
// learning phase turns itself on only if the best offset scored more than
// BADSCORE (section 4.3). A phase lasts at most RoundMax rounds of one test
// per offset, RoundMax·len(Offsets) eligible accesses (5,200 with Table 2's
// 100 rounds and 52 offsets), and BO issues at most one prefetch per eligible
// access. So an on phase adds at most that many DRAM reads and an off phase
// none. On a uniform-random kernel a score point is a chance hit in the RR
// table: the 20 line-address bits that index and tag it match a random line
// with probability p = 2^-12 per test. An offset then reaches BADSCORE+1 = 2
// in a phase with probability about C(100,2)·p² ≈ 3·10^-4, and one of the 52
// offsets with probability about 1.5 %. The bound grants the first phase
// plus one phase in ten, several times the chance rate:
//
//	reads(bo) − reads(none) ≤ (1 + phases/10) · RoundMax · len(Offsets)
//
// Next-line issues a prefetch on every eligible access, and on a random
// pointer chase every one of them is a useless DRAM read: its extra reads are
// about as many as none's reads, and the row asserts they are more than
// three times the bound. (On gups the next-line prefetches mostly die in the
// full prefetch queue behind saturated DRAM, so there only BO is bounded.)
//
// 200,000 instructions is the shortest run that keeps the shape of the
// 1,000,000-instruction readings. DRAM reads, none / next-line / BO (seed 1):
// pchase 48,916 / 94,789 / 53,773, BO off in 9 of 9 phases; gups 95,594 /
// 95,674 / 95,607, off in 18 of 19. At 1,000,000: pchase 227,062 / 441,241 /
// 238,917, off in 44 of 47; gups 445,843 / 445,968 / 445,861, off in 91 of
// 95.
func TestKernelThrottling(t *testing.T) {
	bo := core.DefaultParams()
	perPhase := uint64(bo.RoundMax * len(bo.Offsets))
	for _, row := range []struct {
		workload    string
		nextlineFar bool
	}{
		{workload: "pchase", nextlineFar: true},
		{workload: "gups"},
	} {
		t.Run(row.workload, func(t *testing.T) {
			t.Parallel()
			reads := map[string]uint64{}
			var st *core.Stats // BO's
			for _, pf := range []string{"none", "nextline", "bo"} {
				o := engine.DefaultOptions("")
				o.Workloads = []trace.Spec{trace.MustSpec(row.workload)}
				o.L2PF = prefetch.MustSpec(pf)
				o.Instructions = 200_000
				r := runStraight(t, o)
				reads[pf], st = r.DRAM.Reads, r.BO
			}
			bound := perPhase + perPhase*st.Phases/10
			extra := func(pf string) int64 { return int64(reads[pf]) - int64(reads["none"]) }
			t.Logf("DRAM reads none %d, next-line %d (%+d), BO %d (%+d); BO off in %d of %d phases; bound on BO's extra reads %d",
				reads["none"], reads["nextline"], extra("nextline"), reads["bo"], extra("bo"), st.PhasesOff, st.Phases, bound)
			if extra("bo") > int64(bound) {
				t.Errorf("BO added %d DRAM reads over none, above the throttling bound %d", extra("bo"), bound)
			}
			if row.nextlineFar && extra("nextline") <= 3*int64(bound) {
				t.Errorf("next-line added %d DRAM reads over none, not far above BO's bound %d: the kernel no longer shows what throttling saves", extra("nextline"), bound)
			}
		})
	}
}
