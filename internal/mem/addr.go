// Package mem provides address arithmetic shared by every component of the
// simulator: byte/line/page address conversions, page-boundary checks, and
// the virtual-to-physical randomizing translation used by the paper
// (Michaud, HPCA 2016, section 5.1).
//
// Throughout the simulator, addresses are 64-bit and cache lines are 64
// bytes. A "line address" is a byte address shifted right by LineBits.
package mem

import "math/bits"

// Line and page geometry. Lines are fixed at 64 bytes as in the paper
// (Table 1). Page size is a run-time parameter (4KB or 4MB).
const (
	// LineBits is log2 of the cache line size in bytes.
	LineBits = 6
	// LineSize is the cache line size in bytes.
	LineSize = 1 << LineBits
	// PhysBits bounds physical addresses: Translator keeps every one below
	// 1<<PhysBits, so a physical line address fits PhysBits-LineBits bits.
	PhysBits = 40
)

// Addr is a byte address (virtual or physical depending on context).
type Addr uint64

// LineAddr is a cache-line address: a byte address divided by LineSize.
type LineAddr uint64

// LineOf returns the line address containing byte address a.
func LineOf(a Addr) LineAddr { return LineAddr(a >> LineBits) }

// ByteOf returns the first byte address of line l.
func ByteOf(l LineAddr) Addr { return Addr(l) << LineBits }

// PageSize describes a memory page size in bytes. Only 4KB and 4MB are used
// in the paper's evaluation, but any power of two ≥ LineSize works.
type PageSize uint64

// Predefined page sizes used in the paper's six baseline configurations.
const (
	Page4K PageSize = 4 << 10
	Page4M PageSize = 4 << 20
)

// Bits returns log2 of the page size (rounded down; 0 for sizes 0 and 1).
func (p PageSize) Bits() uint { return uint(bits.Len64(uint64(p) >> 1)) }

// PageOf returns the page number of byte address a.
func (p PageSize) PageOf(a Addr) uint64 { return uint64(a) >> p.Bits() }

// PageOfLine returns the page number containing line l.
func (p PageSize) PageOfLine(l LineAddr) uint64 {
	return uint64(l) >> (p.Bits() - LineBits)
}

// SamePage reports whether two line addresses lie in the same page. Offset
// prefetchers never prefetch across a page boundary (paper section 4).
func (p PageSize) SamePage(a, b LineAddr) bool {
	return p.PageOfLine(a) == p.PageOfLine(b)
}

// String implements fmt.Stringer for readable experiment labels.
func (p PageSize) String() string {
	switch p {
	case Page4K:
		return "4KB"
	case Page4M:
		return "4MB"
	}
	// Fall back to an exact byte count for unusual sizes.
	return itoa(uint64(p)) + "B"
}

// itoa is a tiny allocation-free uint formatter so that hot paths can build
// labels without importing fmt.
func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
