// Package dram models the main memory of the baseline microarchitecture
// (paper section 5.3 and Table 1): two independent channels, each a 64-bit
// bus clocked at 1/4 the core frequency driving one rank of 8 chips with 8
// banks and an 8KB per-rank row buffer, DDR3-like timing, per-core read and
// write queues, an FR-FCFS read scheduler with steady/urgent modes and
// proportional-counter fairness, and out-of-order write bursts of 16.
//
// The geometry is the address mapping's, not a parameter: MapAddress
// decodes one channel bit, three bank bits and a row of seven line bits, and
// exports them as Channels, Banks and RowBytes. Params holds the timing and
// the queues.
//
// The scheduler does not distinguish demand from prefetch requests — they
// are treated equally, exactly as in the paper.
//
// The paper's controller searches every read queue for the line before it
// inserts a read (footnote 13). Here that search would never match: the
// uncore searches its L3 fill queue first, and an L3 fill-queue entry is
// pushed together with its read and popped only after the controller has
// issued it, so a queued read always has an entry that catches the next
// request for its line. A snapshot needs a drained machine, so a restored
// memory holds no read the uncore does not know about either. The L3 fill
// queue is therefore the one record of an in-flight DRAM read, and each
// controller is a plain per-core queue.
package dram

// Params collects the DDR3-like timing and queue parameters from Table 1.
// All timing values are in bus cycles; BusRatio converts to core cycles
// (bus cycle = 4 core cycles in the baseline). The geometry is not a
// parameter: Channels, Banks and RowBytes are what MapAddress decodes.
type Params struct {
	BusRatio int // core cycles per bus cycle

	TCL    int // CAS latency
	TRCD   int // RAS-to-CAS delay
	TRP    int // row precharge
	TRAS   int // row active time
	TCWL   int // CAS write latency
	TRTP   int // read-to-precharge
	TWR    int // write recovery
	TWTR   int // write-to-read turnaround
	TBURST int // data burst duration (8 beats on a 64-bit bus = 4 bus cycles)

	ReadQueueLen  int // per-core read queue entries per controller
	WriteQueueLen int // per-core write queue entries per controller
	WriteBatch    int // writes drained per write burst

	// ExtraLatency is the fixed round-trip overhead in core cycles added to
	// every read completion: controller pipeline, on-chip interconnect and
	// off-chip link delays that the bank timing alone does not cover.
	ExtraLatency uint64

	NumCores int

	// UrgentThreshold is the proportional-counter gap between the served
	// core and the lagging core beyond which urgent mode preempts steady
	// mode (section 5.3 uses 31).
	UrgentThreshold uint32
}

// DefaultParams returns the baseline memory system of Table 1.
func DefaultParams(numCores int) Params {
	return Params{
		BusRatio:        4,
		TCL:             11,
		TRCD:            11,
		TRP:             11,
		TRAS:            33,
		TCWL:            8,
		TRTP:            6,
		TWR:             12,
		TWTR:            6,
		TBURST:          4,
		ReadQueueLen:    32,
		WriteQueueLen:   32,
		WriteBatch:      16,
		ExtraLatency:    60,
		NumCores:        numCores,
		UrgentThreshold: 31,
	}
}
