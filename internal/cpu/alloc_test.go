package cpu

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/stride"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// guardRequests is how many core requests the measured run covers: twice
// the 4,096 records a slab-carving allocator would hand out per allocation,
// so that amortised allocation shows as a whole object, not as a fraction
// that a per-cycle average rounds to 0.
const guardRequests = 8192

// l2Accesses is the number of requests that have left h's demand queues:
// each is one L2 hit or one L2 miss.
func l2Accesses(h *uncore.Hierarchy) uint64 {
	s := h.Stats()
	return s.L2Hits + s.L2Misses
}

// TestCoreCycleZeroAlloc pins the steady-state cost of the core's hot loop:
// once the ROB ring, request queues, fill-entry pool, DRAM request pool and
// completion pool have warmed up, simulated cycles — Core.Cycle plus the
// Hierarchy.Tick it drives, behind the two NextEvent calls the engine makes
// before every cycle it ticks — must not allocate, measured as one run of
// guardRequests core requests. A regression here silently multiplies across
// hundreds of millions of simulated cycles, so it fails the build instead of
// the profiler.
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
			wedged := false
			allocs := testing.AllocsPerRun(1, func() {
				start, first := l2Accesses(h), now
				for ; l2Accesses(h)-start < guardRequests; now++ {
					if now-first == 100*guardRequests {
						wedged = true
						return
					}
					c.NextEvent(now)
					h.NextEvent(now)
					c.Cycle(now)
					h.Tick(now)
				}
			})
			if wedged {
				t.Fatalf("%s: fewer than %d core requests in %d cycles up to cycle %d", wl, guardRequests, 100*guardRequests, now)
			}
			if allocs != 0 {
				t.Errorf("%s: %d core requests allocate %.0f objects, want 0", wl, guardRequests, allocs)
			}
		})
	}
}
