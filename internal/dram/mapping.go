package dram

import "bopsim/internal/mem"

// The geometry MapAddress decodes (section 5.3): one channel bit, three
// bank bits and seven row-offset bits of the line address.
const (
	channelBits   = 1
	bankBits      = 3
	rowOffsetBits = 7

	Channels = 1 << channelBits // independent channels, one controller each
	Banks    = 1 << bankBits    // banks per rank (one rank per channel)
	// RowBytes is one bank's row buffer: the lines that share a channel,
	// a bank and a row.
	RowBytes = mem.LineSize << rowOffsetBits
)

// Location is the physical DRAM coordinates of a cache line.
type Location struct {
	Channel int
	Bank    int
	Row     uint64
}

// bit extracts bit i of a byte address.
func bit(a uint64, i uint) uint64 { return (a >> i) & 1 }

// MapAddress implements the paper's physical-address-to-DRAM mapping
// (section 5.3). With byte-address bits a32..a6 being the line address
// (a5..a0 the line offset):
//
//	channel (1 bit):  a11 ^ a10 ^ a9 ^ a8
//	bank (3 bits):    (a16^a13, a15^a12, a14^a11)
//	row offset (7b):  (a13,a12,a11,a10,a9,a7,a6)   [position in row buffer]
//	row:              (a32, ..., a17)
//
// The XOR folds make consecutive lines spread over both channels and all
// banks, which is what gives streaming workloads bank- and
// channel-parallelism.
func MapAddress(line mem.LineAddr) Location {
	a := uint64(mem.ByteOf(line))
	ch := bit(a, 11) ^ bit(a, 10) ^ bit(a, 9) ^ bit(a, 8)
	bank := (bit(a, 16)^bit(a, 13))<<2 |
		(bit(a, 15)^bit(a, 12))<<1 |
		(bit(a, 14) ^ bit(a, 11))
	row := a >> 17 // a32..a17 (and above, harmless for a model)
	return Location{Channel: int(ch), Bank: int(bank), Row: row}
}
