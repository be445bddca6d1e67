package uncore

import (
	"testing"

	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// guardRequests is how many core requests one measured run of an
// allocation guard covers: twice the 4,096 records a slab-carving allocator
// would hand out per allocation, so that amortised allocation shows as a
// whole object, not as a fraction that a per-run average rounds to 0.
const guardRequests = 8192

// measureRequests runs cycle from now on until guardRequests more core
// requests have left h's demand queues, and requires the run, measured as
// one, to allocate nothing. It returns the first cycle not run. A run that
// takes more than 100 cycles a request fails as wedged.
func measureRequests(t *testing.T, h *Hierarchy, now uint64, cycle func(now uint64)) uint64 {
	t.Helper()
	wedged := false
	allocs := testing.AllocsPerRun(1, func() {
		start, first := l2Accesses(h), now
		for ; l2Accesses(h)-start < guardRequests; now++ {
			if now-first == 100*guardRequests {
				wedged = true
				return
			}
			cycle(now)
		}
	})
	if wedged {
		t.Fatalf("fewer than %d core requests in %d cycles up to cycle %d", guardRequests, 100*guardRequests, now)
	}
	if allocs != 0 {
		t.Errorf("%d core requests allocate %.0f objects, want 0", guardRequests, allocs)
	}
	return now
}

// l2Accesses is the number of requests that have left h's demand queues:
// each is one L2 hit or one L2 miss.
func l2Accesses(h *Hierarchy) uint64 {
	s := h.Stats()
	return s.L2Hits + s.L2Misses
}

// TestHierarchyTickZeroAlloc pins the steady-state cost of the uncore hot
// loop in isolation: with warm queues and pools, demand traffic (Demand +
// Tick, the caller releasing each completion it is handed at once, as a
// store does) must not allocate over a run of guardRequests core requests.
// The flowing leg crosses the DL1-hit, MSHR, L2, L3 and DRAM paths, including
// a real L2 prefetcher feeding the prefetch queue, and never refuses
// anything; the blocked leg is the other regime, where most attempts are
// refused and answered from a refusal memo.
func TestHierarchyTickZeroAlloc(t *testing.T) {
	nextLine := func(int) prefetch.L2Prefetcher { return prefetch.NewNextLine(mem.Page4K) }
	warm := func(cycles uint64, cycle func(now uint64)) (now uint64) {
		for ; now < cycles; now++ {
			cycle(now)
		}
		return now
	}

	t.Run("flowing", func(t *testing.T) {
		h := New(DefaultConfig(1, mem.Page4K), nextLine, nil, nil)
		// A strided demand stream: misses at every new line exercise the full
		// miss path; repeat visits exercise the hit path.
		var va mem.Addr
		cycle := func(now uint64) {
			if h.CanAccept(0) {
				if _, c, _ := h.Demand(0, 0x400, va, va%128 == 0, now); c != nil {
					h.Release(c)
				}
				va += 64
				if va >= 1<<22 {
					va = 0
				}
			}
			h.Tick(now)
		}
		measureRequests(t, h, warm(200_000, cycle), cycle)
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
		send := func(now uint64) {
			for c := range vas {
				if _, done, ok := h.Demand(c, 0x400, vas[c], true, now); ok {
					if done != nil {
						h.Release(done)
					}
					vas[c] += 4160 // a new line, a new page, soon a new DRAM row
				}
			}
		}
		cycle := func(now uint64) {
			send(now)
			h.Tick(now)
		}
		now := warm(100_000, cycle)
		before := h.memoHits
		send(measureRequests(t, h, now, cycle)) // the cores take every MSHR a fill freed
		hits := h.memoHits
		if hits.demand == before.demand || total(hits.head) == total(before.head) || total(hits.pref) == total(before.pref) {
			t.Errorf("the measured cycles took %d Demand, %d demand-head and %d prefetch-head memo hits: not the blocked path",
				hits.demand-before.demand, total(hits.head)-total(before.head), total(hits.pref)-total(before.pref))
		}
		if n := h.outstanding[0].len(); n != cfg.MSHRs || !h.l3fq.full() {
			t.Errorf("core 0 holds %d of %d MSHRs, L3 fill queue full = %v: the machine is not blocked", n, cfg.MSHRs, h.l3fq.full())
		}
	})
}

// TestDRAMReadsZeroAlloc pins what a DRAM read costs the uncore: nothing.
// An L3 fill-queue entry hands DRAM the future it embeds, so no future is
// carved per read. Prefetch targets go straight into core 0's prefetch
// queue, each a line not seen before, with no core demand: every one is an
// L3 miss and a DRAM read, and each measured run sends a slab's worth of
// reads (4,096) through Tick, so a future per read would cost a slab per
// run. (AllocsPerRun's per-run average, rounded down, forgives a stray
// allocation of the runtime's, not one per run.) First every DRAM read queue
// is filled once, so that the controllers' queues and request free lists
// have grown to their largest before anything is measured.
func TestDRAMReadsZeroAlloc(t *testing.T) {
	const reads = 4096
	h := New(DefaultConfig(1, mem.Page4K), nil, nil, nil)
	var now uint64
	for line := mem.LineAddr(0); line < 1024; line++ { // each channel takes the first 32 of its lines
		h.mem.EnqueueRead(line, 0, dram.Pending())
	}
	if !h.mem.ReadBlocked(0, 0) || !h.mem.ReadBlocked(4, 0) { // lines 0 and 4 map to channels 0 and 1
		t.Fatal("a DRAM read queue is not full")
	}
	for ; !h.mem.Idle(); now++ {
		h.mem.Tick(now)
	}
	var line mem.LineAddr = 1 << 20
	wedged := false
	run := func() {
		start := now
		for pushed := 0; pushed < reads || !h.Drained(); now++ {
			if now-start > 100*reads {
				wedged = true
				return
			}
			if pushed < reads && h.pq[0].n < len(h.pq[0].lines) {
				h.pq[0].push(line)
				line++
				pushed++
			}
			h.Tick(now)
		}
	}
	const runs = 4
	avg := testing.AllocsPerRun(runs, run)
	if wedged {
		t.Fatalf("cycle %d: not drained %d cycles into a run", now, 100*reads)
	}
	if avg != 0 {
		t.Errorf("%d DRAM reads allocate %.0f objects, want 0", reads, avg)
	}
	if st := h.Stats(); st.L3Misses != (runs+1)*reads || st.L3Hits != 0 || st.PrefCancelled != 0 {
		t.Errorf("L3Misses %d, L3Hits %d, PrefCancelled %d: want %d misses, every prefetch a miss and none cancelled",
			st.L3Misses, st.L3Hits, st.PrefCancelled, (runs+1)*reads)
	}
}
