// Package uncore assembles the simulated memory hierarchy of Table 1: per
// core a 32KB DL1 and a 512KB private L2, a shared 8MB L3, fill queues with
// associative search and late-prefetch promotion instead of L2/L3 MSHRs
// (paper section 5.4), an 8-entry L2 prefetch queue with oldest-cancel, and
// the DRAM of internal/dram underneath. The DL1 stride prefetcher and the
// configurable L2 prefetcher hang off the access path exactly where the
// paper puts them (sections 5.5, 5.6).
package uncore

import (
	"bopsim/internal/cache"
	"bopsim/internal/mem"
)

// Config sets the hierarchy geometry and latencies (Table 1 defaults).
type Config struct {
	NumCores int
	Page     mem.PageSize

	DL1Size, DL1Ways int
	L2Size, L2Ways   int
	L3Size, L3Ways   int

	// Latencies in cycles, charged on hits only: a miss goes on to the next
	// level in the cycle it is looked up. An L2 hit costs DL1Latency +
	// L2Latency, an L3 hit DL1Latency + L3Latency (not the L2's too), and a
	// DRAM read DL1Latency, the bank timing and dram.Params.ExtraLatency
	// (ROADMAP item 31).
	DL1Latency uint64
	L2Latency  uint64
	L3Latency  uint64

	L2FillQueueLen   int // 16 in Table 1
	L3FillQueueLen   int // 32 in Table 1
	PrefetchQueueLen int // 8 (section 5.4)
	MSHRs            int // 32 DL1 block requests

	// L3Policy selects the shared-cache replacement policy: "5P" (default),
	// "LRU" or "DRRIP" (Figure 3).
	L3Policy string

	// LatePromotion enables demand misses hitting fill-queue prefetch
	// entries to be promoted (section 5.4). Disabling it is an ablation,
	// and it charges more than the lost promotion: a demand that finds an
	// unpromoted prefetch of its line in the L2 fill queue is refused and
	// replays at the head of its core's L2 demand queue, so every request
	// behind it waits for that prefetch to fill (head-of-line blocking;
	// DESIGN §7).
	LatePromotion bool

	// Seed makes policy randomization deterministic per run.
	Seed uint64
}

// DefaultConfig returns Table 1's hierarchy for the given core count and
// page size.
func DefaultConfig(numCores int, page mem.PageSize) Config {
	return Config{
		NumCores:         numCores,
		Page:             page,
		DL1Size:          32 << 10,
		DL1Ways:          8,
		L2Size:           512 << 10,
		L2Ways:           8,
		L3Size:           8 << 20,
		L3Ways:           16,
		DL1Latency:       3,
		L2Latency:        11,
		L3Latency:        21,
		L2FillQueueLen:   16,
		L3FillQueueLen:   32,
		PrefetchQueueLen: 8,
		MSHRs:            32,
		L3Policy:         "5P",
		LatePromotion:    true,
		Seed:             1,
	}
}

// newL3Policy builds the configured L3 replacement policy.
func (c Config) newL3Policy() cache.Policy {
	sets := c.L3Size / mem.LineSize / c.L3Ways
	switch c.L3Policy {
	case "", "5P":
		return cache.NewFiveP(sets, c.L3Ways, c.NumCores, c.Seed)
	case "LRU":
		return cache.NewLRU(sets, c.L3Ways)
	case "DRRIP":
		return cache.NewDRRIP(sets, c.L3Ways, c.Seed)
	}
	panic("uncore: unknown L3 policy " + c.L3Policy)
}
