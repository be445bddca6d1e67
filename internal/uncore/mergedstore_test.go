package uncore

import (
	"testing"

	"bopsim/internal/cache"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// oneShotL1 is a DL1 prefetcher that answers its first query with target and
// every later one with nothing.
type oneShotL1 struct {
	target mem.Addr
	asked  bool
}

func (p *oneShotL1) Name() string { return "one-shot" }
func (p *oneShotL1) Query(uint64, mem.Addr) (mem.Addr, bool) {
	if p.asked {
		return 0, false
	}
	p.asked = true
	return p.target, true
}
func (p *oneShotL1) Update(uint64, mem.Addr) {}

// The line the merged-store tests store to, and a line of the same page
// whose miss asks the DL1 prefetcher for it (the page is then in the TLB2).
const (
	storedVA  mem.Addr = 0x40000
	triggerVA mem.Addr = 0x40800
)

// mergedStoreHier builds a 1-core hierarchy with no L2 prefetcher and, when
// l1 is non-nil, l1 as the DL1 prefetcher. With inL2 the stored line is
// placed in the L2 (and nowhere else), so a request for it is an L2 hit.
func mergedStoreHier(l1 prefetch.L1Prefetcher, inL2 bool) (*Hierarchy, mem.LineAddr) {
	var newL1 func(int) prefetch.L1Prefetcher
	if l1 != nil {
		newL1 = func(int) prefetch.L1Prefetcher { return l1 }
	}
	h := New(DefaultConfig(1, mem.Page4K), nil, newL1, nil)
	line := h.translators[0].TranslateLine(mem.LineOf(storedVA))
	if inL2 {
		h.l2[0].Place(line, cache.InsertInfo{Core: 0})
	}
	return h, line
}

// tickUntilDL1Fill ticks h from cycle from until a DL1 fill of line is
// pending (an L2 hit has been looked up and its data is on its way to the
// DL1), returning the first cycle not ticked.
func tickUntilDL1Fill(t *testing.T, h *Hierarchy, line mem.LineAddr, from uint64) uint64 {
	t.Helper()
	for now := from; now < from+1000; now++ {
		h.Tick(now)
		for _, f := range h.dl1Fills[0] {
			if f.line == line {
				if f.at <= now+1 {
					t.Fatalf("the DL1 fill of line %#x is due at cycle %d: no cycle is left to merge a store in", line, f.at)
				}
				return now + 1
			}
		}
	}
	t.Fatalf("no DL1 fill of line %#x pending by cycle %d", line, from+1000)
	return 0
}

// storeMerges stores to the stored line at cycle now and requires the store
// to merge onto the line's MSHR register, returning the caller's completion.
func storeMerges(t *testing.T, h *Hierarchy, line mem.LineAddr, now uint64) *Completion {
	t.Helper()
	if h.outstanding[0].find(line) < 0 {
		t.Fatalf("cycle %d: line %#x holds no MSHR for the store to merge onto", now, line)
	}
	misses := h.Stats().DL1Misses
	_, c, ok := h.Demand(0, 0x510, storedVA+8, true, now)
	if !ok || c == nil || h.Stats().DL1Misses != misses+1 {
		t.Fatalf("cycle %d: the store did not miss the DL1 and merge (ok %v, completion %v)", now, ok, c != nil)
	}
	return c
}

// requireDirtyDL1 drains h from cycle from, gives back the completions the
// test holds, and requires the DL1 copy of line to be dirty and every
// completion returned to the pool.
func requireDirtyDL1(t *testing.T, h *Hierarchy, line mem.LineAddr, from uint64, held ...*Completion) *cache.Line {
	t.Helper()
	drain(t, h, from, 100000)
	for _, c := range held {
		h.Release(c)
	}
	if n := h.comps.live; n != 0 {
		t.Errorf("%d completions live after the drain", n)
	}
	ln := h.dl1[0].Peek(line)
	if ln == nil {
		t.Fatalf("line %#x is not in the DL1 after the drain", line)
	}
	if !ln.Dirty() {
		t.Errorf("line %#x is clean in the DL1: the merged store's write was dropped", line)
	}
	return ln
}

// TestStoreMergedOntoL2HitDirtiesDL1: a load served by an L2 hit, and a
// store to the same line merged onto its MSHR register between the L2
// lookup and the DL1 fill. The DL1 copy must be dirty, or the store never
// reaches the L2 by a write-back.
func TestStoreMergedOntoL2HitDirtiesDL1(t *testing.T) {
	h, line := mergedStoreHier(nil, true)
	_, load, ok := h.Demand(0, 0x500, storedVA, false, 0)
	if !ok || load == nil {
		t.Fatal("the load did not miss the DL1")
	}
	now := tickUntilDL1Fill(t, h, line, 0)
	if h.Stats().L2Hits != 1 {
		t.Fatalf("L2Hits = %d, want the load's one", h.Stats().L2Hits)
	}
	store := storeMerges(t, h, line, now)
	requireDirtyDL1(t, h, line, now, load, store)
}

// TestStoreMergedOntoStridePrefetchL2Hit is the same with a DL1 stride
// prefetch as the request that took the register: the DL1 copy must be
// dirty and keep the prefetch bit.
func TestStoreMergedOntoStridePrefetchL2Hit(t *testing.T) {
	h, line := mergedStoreHier(&oneShotL1{target: storedVA}, true)
	_, trigger, ok := h.Demand(0, 0x500, triggerVA, false, 0)
	if !ok || trigger == nil {
		t.Fatal("the triggering load did not miss the DL1")
	}
	if h.Stats().StridePrefIssued != 1 || h.outstanding[0].find(line) < 0 {
		t.Fatalf("the DL1 prefetch of line %#x was not issued (StridePrefIssued %d)", line, h.Stats().StridePrefIssued)
	}
	now := tickUntilDL1Fill(t, h, line, 0)
	store := storeMerges(t, h, line, now)
	if ln := requireDirtyDL1(t, h, line, now, trigger, store); !ln.Prefetch() {
		t.Errorf("line %#x lost the DL1 prefetch bit its stride prefetch gave it", line)
	}
}

// TestStoreMergedOntoL2MissFill: a load that misses the L2, and a store
// merged onto its register while the block is on its way from DRAM. The
// DL1 copy must be dirty.
func TestStoreMergedOntoL2MissFill(t *testing.T) {
	h, line := mergedStoreHier(nil, false)
	_, load, ok := h.Demand(0, 0x500, storedVA, false, 0)
	if !ok || load == nil {
		t.Fatal("the load did not miss the DL1")
	}
	var now uint64
	for ; h.l2fq[0].find(line) == nil; now++ {
		if now == 1000 {
			t.Fatal("the load never entered the L2 fill queue")
		}
		h.Tick(now)
	}
	store := storeMerges(t, h, line, now)
	requireDirtyDL1(t, h, line, now, load, store)
}
