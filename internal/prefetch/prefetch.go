// Package prefetch defines the L2 prefetcher interface shared by every L2
// prefetcher in this repository (next-line, fixed-offset, Best-Offset,
// Sandbox) and implements the two simplest ones. L2 prefetchers work on
// physical line addresses only: they see neither PCs nor TLB state (paper
// section 5.6), and they never prefetch across a page boundary.
//
// Prefetchers are never checkpointed: a warmup snapshot (engine.Checkpoint)
// is the drained machine without them, and the warmup barrier — straight or
// restored — installs them cold, so an implementation owes no serialization.
package prefetch

import "bopsim/internal/mem"

// AccessInfo describes one L2 read access from the core side (an L1 miss or
// an L1 prefetch), the input stream every L2 prefetcher observes.
type AccessInfo struct {
	Line mem.LineAddr // physical line address X
	Hit  bool         // L2 hit
	// PrefetchedHit is true for an L2 hit on a line whose prefetch bit was
	// still set. Misses and prefetched hits are the "eligible" accesses
	// that trigger offset prefetchers (paper section 4).
	PrefetchedHit bool
}

// Eligible reports whether the access triggers an offset prefetcher: an L2
// miss or a prefetched hit.
func (a AccessInfo) Eligible() bool { return !a.Hit || a.PrefetchedHit }

// L2Prefetcher is implemented by all L2 prefetchers.
type L2Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// OnAccess observes one L2 read access and returns the physical lines
	// to prefetch (possibly none). Implementations must respect page
	// boundaries themselves. The returned slice may be scratch owned by the
	// prefetcher, valid only until the next OnAccess call — callers consume
	// it immediately and must not retain it.
	OnAccess(a AccessInfo) []mem.LineAddr
	// OnFill observes a line being inserted into the L2 cache, with
	// wasPrefetch true when the fill was caused by this prefetcher (and not
	// promoted to a demand miss in the meantime). The Best-Offset
	// prefetcher uses fills to populate its recent-requests table at
	// prefetch *completion* time, which is how it learns timeliness.
	OnFill(line mem.LineAddr, wasPrefetch bool)
}

// PreIssueTagChecker is optionally implemented by L2 prefetchers whose
// requests should pass an extra L2 tag lookup before entering the prefetch
// queue. The paper adds this check for SBP's degree-N request streams
// (section 6.3); any registered prefetcher issuing several lines per access
// should opt in the same way.
type PreIssueTagChecker interface {
	PreIssueTagCheck() bool
}

// L1Prefetcher is implemented by DL1 prefetchers. Unlike L2 prefetchers
// they see the program side of an access — the requesting PC and the
// virtual address — and return virtual prefetch addresses; the hierarchy
// translates, TLB2-gates and injects them (paper section 5.5).
type L1Prefetcher interface {
	// Name identifies the prefetcher in reports.
	Name() string
	// Query computes a prefetch virtual address for a load/store at pc
	// accessing va, using state from *before* this access's table update.
	// The caller invokes it only for accepted DL1 misses and prefetched
	// hits, and only when a register is free for the prefetch.
	Query(pc uint64, va mem.Addr) (prefVA mem.Addr, ok bool)
	// Update records the retirement of a load/store at pc with address va
	// (tables update at retirement, in program order).
	Update(pc uint64, va mem.Addr)
}

// None is the "no L2 prefetcher" configuration (Figure 5's ablation).
type None struct{}

// Name implements L2Prefetcher.
func (None) Name() string { return "none" }

// OnAccess implements L2Prefetcher.
//
//bovet:hotpath
func (None) OnAccess(AccessInfo) []mem.LineAddr { return nil }

// OnFill implements L2Prefetcher.
//
//bovet:hotpath
func (None) OnFill(mem.LineAddr, bool) {}

// FixedOffset prefetches X+D on every eligible access, D constant. D=1 is
// the baseline next-line prefetcher of section 5.6; other values are used
// by Figures 7 and 8.
type FixedOffset struct {
	page   mem.PageSize
	offset uint64
	name   string
	buf    [1]mem.LineAddr // OnAccess scratch, avoids a per-access slice
}

// NewFixedOffset returns a fixed-offset prefetcher with offset d >= 1.
func NewFixedOffset(page mem.PageSize, d int) *FixedOffset {
	if d < 1 {
		panic("prefetch: fixed offset must be >= 1")
	}
	name := "next-line"
	if d != 1 {
		name = "offset-" + itoa(d)
	}
	return &FixedOffset{page: page, offset: uint64(d), name: name}
}

// NewNextLine returns the baseline L2 next-line prefetcher (offset 1).
func NewNextLine(page mem.PageSize) *FixedOffset { return NewFixedOffset(page, 1) }

// Name implements L2Prefetcher.
func (p *FixedOffset) Name() string { return p.name }

// Offset returns the constant prefetch offset.
func (p *FixedOffset) Offset() int { return int(p.offset) }

// OnAccess implements L2Prefetcher.
//
//bovet:hotpath
func (p *FixedOffset) OnAccess(a AccessInfo) []mem.LineAddr {
	if !a.Eligible() {
		return nil
	}
	target := a.Line + mem.LineAddr(p.offset)
	if !p.page.SamePage(a.Line, target) {
		return nil
	}
	p.buf[0] = target
	return p.buf[:1]
}

// OnFill implements L2Prefetcher.
//
//bovet:hotpath
func (p *FixedOffset) OnFill(mem.LineAddr, bool) {}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
