package mem

import (
	"testing"
	"testing/quick"
)

func TestLineConversionRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		l := LineOf(addr)
		back := ByteOf(l)
		// The line base must be <= addr and within one line of it.
		return uint64(back) <= a && a-uint64(back) < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// loopBits is the shift loop Bits replaced, kept as its oracle.
func loopBits(p PageSize) uint {
	b := uint(0)
	for s := uint64(p); s > 1; s >>= 1 {
		b++
	}
	return b
}

func TestPageSizeBits(t *testing.T) {
	if got := Page4K.Bits(); got != 12 {
		t.Errorf("Page4K.Bits() = %d, want 12", got)
	}
	if got := Page4M.Bits(); got != 22 {
		t.Errorf("Page4M.Bits() = %d, want 22", got)
	}
	sizes := []PageSize{0, 1}
	for b := 0; b < 64; b++ {
		p := PageSize(1) << b
		sizes = append(sizes, p-1, p, p+1)
	}
	for _, p := range sizes {
		if got, want := p.Bits(), loopBits(p); got != want {
			t.Errorf("PageSize(%d).Bits() = %d, the shift loop says %d", uint64(p), got, want)
		}
	}
}

// TestLinesPerPage checks where PageOfLine puts the page boundary: a 4KB
// page holds 64 lines and a 4MB page 65536.
func TestLinesPerPage(t *testing.T) {
	for _, tc := range []struct {
		page  PageSize
		lines LineAddr
	}{{Page4K, 64}, {Page4M, 65536}} {
		if tc.page.PageOfLine(tc.lines-1) != 0 || tc.page.PageOfLine(tc.lines) != 1 {
			t.Errorf("a %s page does not hold exactly %d lines", tc.page, tc.lines)
		}
	}
}

func TestSamePage(t *testing.T) {
	// Lines 0..63 share the first 4KB page; line 64 does not.
	if !Page4K.SamePage(0, 63) {
		t.Error("lines 0 and 63 should share a 4KB page")
	}
	if Page4K.SamePage(0, 64) {
		t.Error("lines 0 and 64 must not share a 4KB page")
	}
	// With 4MB pages, lines 0 and 64 do share a page.
	if !Page4M.SamePage(0, 64) {
		t.Error("lines 0 and 64 should share a 4MB page")
	}
}

func TestPageSizeString(t *testing.T) {
	if Page4K.String() != "4KB" || Page4M.String() != "4MB" {
		t.Errorf("unexpected page size strings: %s %s", Page4K, Page4M)
	}
	if got := PageSize(8192).String(); got != "8192B" {
		t.Errorf("PageSize(8192).String() = %q, want 8192B", got)
	}
}

func TestTranslatorPreservesPageOffset(t *testing.T) {
	tr := NewTranslator(Page4K, 12345)
	f := func(a uint64) bool {
		va := Addr(a)
		pa := tr.Translate(va)
		return uint64(pa)&(uint64(Page4K)-1) == uint64(va)&(uint64(Page4K)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTranslatorDeterministic(t *testing.T) {
	a := NewTranslator(Page4K, 7)
	b := NewTranslator(Page4K, 7)
	for va := Addr(0); va < 1<<20; va += 4096 {
		if a.Translate(va) != b.Translate(va) {
			t.Fatalf("translators with identical seeds disagree at %#x", va)
		}
	}
}

func TestTranslatorSamePageStaysTogether(t *testing.T) {
	tr := NewTranslator(Page4K, 99)
	base := Addr(0x1234000)
	pa0 := tr.Translate(base)
	for off := Addr(1); off < 4096; off += 64 {
		pa := tr.Translate(base + off)
		if pa != pa0+off {
			t.Fatalf("offset %d broke page contiguity: %#x vs %#x", off, pa, pa0+off)
		}
	}
}

func TestTranslatorSeedsDiffer(t *testing.T) {
	a := NewTranslator(Page4K, 1)
	b := NewTranslator(Page4K, 2)
	same := 0
	for va := Addr(0); va < 1<<22; va += 4096 {
		if a.Translate(va) == b.Translate(va) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds mapped %d pages identically", same)
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	for bitIdx := uint(0); bitIdx < 64; bitIdx += 7 {
		x := uint64(0xdeadbeefcafef00d)
		diff := Mix64(x) ^ Mix64(x^(1<<bitIdx))
		ones := 0
		for d := diff; d != 0; d &= d - 1 {
			ones++
		}
		if ones < 16 || ones > 48 {
			t.Errorf("bit %d: only %d output bits flipped", bitIdx, ones)
		}
	}
}
