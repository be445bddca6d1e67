package uncore

import (
	"fmt"

	"bopsim/internal/cache"
	"bopsim/internal/dram"
	"bopsim/internal/prefetch"
	"bopsim/internal/tlb"
)

// State is the serialized state of a drained hierarchy: cache contents and
// replacement state, TLB residency, DRAM bank/scheduler registers and every
// statistic. Transient queue state (fill queues, demand queues, MSHRs,
// prefetch queues, pending writebacks) is deliberately absent — SaveState
// refuses a hierarchy that is not Drained, so there is never anything in
// them to serialize. Prefetchers are not part of it: the barrier installs
// them cold.
type State struct {
	Stats       Stats
	DL1         []cache.State
	L2          []cache.State
	L3          cache.State
	TLBs        []tlb.State
	PQCancelled []uint64
	DRAM        dram.State
}

// SaveState serializes the hierarchy. It reports an error when any queue
// still holds in-flight work; the engine drains the machine first.
func (h *Hierarchy) SaveState() (State, error) {
	if !h.Drained() {
		return State{}, fmt.Errorf("uncore: cannot checkpoint with requests in flight")
	}
	dramState, err := h.mem.SaveState()
	if err != nil {
		return State{}, err
	}
	st := State{Stats: h.stats, L3: h.l3.SaveState(), DRAM: dramState}
	for c := range h.dl1 {
		st.DL1 = append(st.DL1, h.dl1[c].SaveState())
		st.L2 = append(st.L2, h.l2[c].SaveState())
		st.TLBs = append(st.TLBs, h.tlbs[c].SaveState())
		st.PQCancelled = append(st.PQCancelled, h.pq[c].Cancelled)
	}
	return st, nil
}

// RestoreState replaces a freshly constructed hierarchy's state with a
// previously saved one. The hierarchy must have been built from the same
// configuration (core count, cache geometry, L3 policy, page size).
func (h *Hierarchy) RestoreState(st State) error {
	if !h.Drained() {
		return fmt.Errorf("uncore: cannot restore with requests in flight")
	}
	if len(st.DL1) != len(h.dl1) || len(st.L2) != len(h.l2) ||
		len(st.TLBs) != len(h.tlbs) || len(st.PQCancelled) != len(h.pq) {
		return fmt.Errorf("uncore: state covers %d cores, hierarchy has %d", len(st.DL1), len(h.dl1))
	}
	if err := h.l3.RestoreState(st.L3, h.cfg.NumCores); err != nil {
		return err
	}
	for c := range h.dl1 {
		if err := h.dl1[c].RestoreState(st.DL1[c], h.cfg.NumCores); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
		if err := h.l2[c].RestoreState(st.L2[c], h.cfg.NumCores); err != nil {
			return fmt.Errorf("core %d: %w", c, err)
		}
		if err := h.tlbs[c].RestoreState(st.TLBs[c]); err != nil {
			return fmt.Errorf("core %d TLB: %w", c, err)
		}
		h.pq[c].Cancelled = st.PQCancelled[c]
	}
	if err := h.mem.RestoreState(st.DRAM); err != nil {
		return err
	}
	h.stats = st.Stats
	// Restore only promises a drained hierarchy, not a fresh one: no attempt
	// after it may be answered from a refusal remembered before it.
	clear(h.retry)
	return nil
}

// ResetStats zeroes every event counter in the hierarchy — the hierarchy's
// own, the caches', the TLBs', the prefetch queues' and DRAM's — without
// touching any warmed state. The warmup barrier calls it so the measured
// region's statistics start from zero in checkpointed and straight runs
// alike.
func (h *Hierarchy) ResetStats() {
	h.stats = Stats{}
	h.memoHits = memoCounts{}
	h.l3.ResetStats()
	for c := range h.dl1 {
		h.dl1[c].ResetStats()
		h.l2[c].ResetStats()
		h.tlbs[c].ResetStats()
		h.pq[c].Cancelled = 0
	}
	h.mem.ResetStats()
}

// SetPrefetchers replaces every core's L2 and DL1 prefetchers: each factory
// is called once per core (a nil factory, or one returning nil, means no
// prefetching at that level), and the wiring that depends on what a
// prefetcher optionally implements is resolved here, once. New installs the
// first set; the warmup barrier uses it too — a warmup region that ran with
// prefetching disabled installs the configured prefetchers, cold, exactly at
// the boundary of the measured region.
func (h *Hierarchy) SetPrefetchers(newL2PF func(core int) prefetch.L2Prefetcher, newL1PF func(core int) prefetch.L1Prefetcher) {
	for c := range h.l2pf {
		var l1 prefetch.L1Prefetcher
		if newL1PF != nil {
			l1 = newL1PF(c)
		}
		h.l1pf[c] = l1
		h.l1charger[c], _ = l1.(prefetch.QueryCharger)
		var pf prefetch.L2Prefetcher = prefetch.None{}
		if newL2PF != nil {
			if p := newL2PF(c); p != nil {
				pf = p
			}
		}
		h.l2pf[c] = pf
		tagCheck := false
		if tc, ok := pf.(prefetch.PreIssueTagChecker); ok {
			tagCheck = tc.PreIssueTagCheck()
		}
		h.preIssueTagCheck[c] = tagCheck
	}
}
