package uncore

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// TestHierarchyTickZeroAlloc pins the steady-state cost of the uncore hot
// loop in isolation: with warm queues, pools and the future arena, a cycle
// of demand traffic (Demand + Tick) must not allocate. The flowing leg
// crosses the DL1-hit, MSHR, L2, L3 and DRAM paths, including a real L2
// prefetcher feeding the prefetch queue, and never refuses anything; the
// blocked leg is the other regime, where most attempts are refused and
// answered from a refusal memo.
func TestHierarchyTickZeroAlloc(t *testing.T) {
	nextLine := func(int) prefetch.L2Prefetcher { return prefetch.NewNextLine(mem.Page4K) }
	warm := func(cycles uint64, cycle func(now uint64)) (now uint64) {
		for ; now < cycles; now++ {
			cycle(now)
		}
		return now
	}
	measure := func(t *testing.T, now uint64, cycle func(now uint64)) {
		t.Helper()
		avg := testing.AllocsPerRun(2000, func() {
			cycle(now)
			now++
		})
		if avg != 0 {
			t.Errorf("steady-state Demand+Tick allocates %.3f objects/cycle, want 0", avg)
		}
	}

	t.Run("flowing", func(t *testing.T) {
		h := New(DefaultConfig(1, mem.Page4K), nextLine, nil, nil)
		// A strided demand stream: misses at every new line exercise the full
		// miss path; repeat visits exercise the hit path.
		var va mem.Addr
		cycle := func(now uint64) {
			if h.CanAccept(0) {
				h.Demand(0, 0x400, va, va%128 == 0, now)
				va += 64
				if va >= 1<<22 {
					va = 0
				}
			}
			h.Tick(now)
		}
		measure(t, warm(200_000, cycle), cycle)
	})

	t.Run("blocked", func(t *testing.T) {
		// Four cores that each send a store to a new line every cycle they can
		// and retry every refusal: MSHRs and the L3 fill queue stay full (it is
		// shortened so that it, not the L2 fill queues, is what fills up, and
		// prefetch-queue heads get to be refused too).
		cfg := DefaultConfig(4, mem.Page4K)
		cfg.L3FillQueueLen = 24
		h := New(cfg, nextLine, nil, nil)
		vas := make([]mem.Addr, cfg.NumCores)
		cycle := func(now uint64) {
			for c := range vas {
				if _, _, ok := h.Demand(c, 0x400, vas[c], true, now); ok {
					vas[c] += 4160 // a new line, a new page, soon a new DRAM row
				}
			}
			h.Tick(now)
		}
		now := warm(100_000, cycle)
		before := h.memoHits
		measure(t, now, cycle)
		hits := h.memoHits
		if hits.demand == before.demand || hits.head == before.head || hits.pref == before.pref {
			t.Errorf("the measured cycles took %d Demand, %d demand-head and %d prefetch-head memo hits: not the blocked path",
				hits.demand-before.demand, hits.head-before.head, hits.pref-before.pref)
		}
		if n := len(h.outstanding[0]); n != cfg.MSHRs || !h.l3fq.full() {
			t.Errorf("core 0 holds %d of %d MSHRs, L3 fill queue full = %v: the machine is not blocked", n, cfg.MSHRs, h.l3fq.full())
		}
	})
}
