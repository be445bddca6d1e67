package mem

// Translator converts virtual addresses to physical addresses by applying a
// randomizing hash to the virtual page number, keeping the page offset.
// This mirrors the paper's simulator (section 5.1): "We simulate
// virtual-to-physical address translation by applying a randomizing hash
// function on the virtual page number." Physical addresses generated by a
// core therefore do not depend on the activity of other cores.
//
// Each core gets its own Translator seeded differently so that distinct
// cores' working sets map to distinct physical pages.
type Translator struct {
	page PageSize
	seed uint64
}

// NewTranslator returns a translator for the given page size. Two
// translators with the same seed produce identical mappings, which keeps
// simulations deterministic.
func NewTranslator(page PageSize, seed uint64) *Translator {
	return &Translator{page: page, seed: seed}
}

// Translate maps a virtual byte address to a physical byte address.
func (t *Translator) Translate(va Addr) Addr {
	bits := t.page.Bits()
	vpn := uint64(va) >> bits
	ppn := Mix64(vpn ^ t.seed)
	// Keep physical addresses within the PhysBits-bit physical space so
	// that DRAM row numbers stay reasonable.
	ppn &= (1 << (PhysBits - bits)) - 1
	return Addr(ppn<<bits | uint64(va)&((1<<bits)-1))
}

// TranslateLine maps a virtual line address to a physical line address.
func (t *Translator) TranslateLine(vl LineAddr) LineAddr {
	return LineOf(t.Translate(ByteOf(vl)))
}

// Mix64 is a splitmix64-style finalizer used as the randomizing page hash
// and by other components needing a cheap, high-quality 64-bit mixer.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
