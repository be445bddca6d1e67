package cpu

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stride"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// TestCoreCycleZeroAlloc pins the steady-state cost of the core's hot loop:
// once the ROB ring, request queues, fill-entry pool, DRAM request pool and
// future arena have warmed up, a simulated cycle — Core.Cycle plus the
// Hierarchy.Tick it drives, behind the two NextEvent calls the engine makes
// before every cycle it ticks — must not allocate. A regression here silently
// multiplies across hundreds of millions of simulated cycles, so it fails
// the build instead of the profiler.
func TestCoreCycleZeroAlloc(t *testing.T) {
	for _, wl := range []string{"stream", "microthrash", "gups"} {
		t.Run(wl, func(t *testing.T) {
			cfg := uncore.DefaultConfig(1, mem.Page4K)
			h := uncore.New(cfg,
				func(int) prefetch.L2Prefetcher { return prefetch.None{} },
				func(int) prefetch.L1Prefetcher { return stride.New() },
				nil)
			c := New(0, DefaultConfig(), h, trace.MustWorkload(wl, 1))

			now := uint64(0)
			for ; now < 200_000; now++ { // reach steady state: all pools warm
				c.Cycle(now)
				h.Tick(now)
			}
			avg := testing.AllocsPerRun(2000, func() {
				c.NextEvent(now)
				h.NextEvent(now)
				c.Cycle(now)
				h.Tick(now)
				now++
			})
			if avg != 0 {
				t.Errorf("%s: steady-state cycle allocates %.3f objects/cycle, want 0", wl, avg)
			}
		})
	}
}
