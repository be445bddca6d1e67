// Package stride is the fix-forward regression fixture: a trimmed stride
// prefetcher (table + recent-prefetch filter) behind a mirror-struct JSON
// codec, the shape real components serialize in, with one deliberate bug —
// the filter's age counters are mutated on every Query but never
// serialized. Before the analyzer existed, this exact class of omission was
// only catchable by the golden determinism suite happening to exercise the
// stale field after a restore; statecodec must turn it into a finding.
package stride

import "encoding/json"

const (
	tableEntries  = 8
	filterEntries = 4
)

type entry struct {
	pc       uint64
	lastAddr uint64
	stride   int64
	conf     int
	valid    bool
}

// Prefetcher is the trimmed stride prefetcher.
type Prefetcher struct {
	entries [tableEntries]entry
	clock   uint64

	filter    [filterEntries]uint64
	filterAge [filterEntries]uint64 // want `Prefetcher\.filterAge is mutated by methods but never touched by SaveState/RestoreState`
	filterLen int
}

// Query touches the filter ages (LRU bookkeeping) on every call.
func (p *Prefetcher) Query(pc uint64, va uint64) (uint64, bool) {
	p.clock++
	for i := range p.entries {
		e := &p.entries[i]
		if !e.valid || e.pc != pc {
			continue
		}
		if e.conf < 3 || e.stride == 0 {
			return 0, false
		}
		target := va + uint64(e.stride)
		for j := 0; j < p.filterLen; j++ {
			if p.filter[j] == target {
				p.filterAge[j] = p.clock
				return 0, false
			}
		}
		slot := 0
		if p.filterLen < filterEntries {
			slot = p.filterLen
			p.filterLen++
		} else {
			for j := 1; j < filterEntries; j++ {
				if p.filterAge[j] < p.filterAge[slot] {
					slot = j
				}
			}
		}
		p.filter[slot] = target
		p.filterAge[slot] = p.clock
		return target, true
	}
	return 0, false
}

// Update records a retirement into the table.
func (p *Prefetcher) Update(pc uint64, va uint64) {
	for i := range p.entries {
		e := &p.entries[i]
		if e.valid && e.pc == pc {
			stride := int64(va) - int64(e.lastAddr)
			if stride == e.stride {
				if e.conf < 3 {
					e.conf++
				}
			} else {
				e.conf = 0
			}
			e.stride = stride
			e.lastAddr = va
			return
		}
	}
	p.entries[int(pc)%tableEntries] = entry{pc: pc, lastAddr: va, valid: true}
}

// entryState mirrors entry with exported fields.
type entryState struct {
	PC       uint64
	LastAddr uint64
	Stride   int64
	Conf     int
	Valid    bool
}

// strideState mirrors the prefetcher — minus the forgotten filterAge.
type strideState struct {
	Entries   []entryState
	Clock     uint64
	Filter    []uint64
	FilterLen int
}

// SaveState serializes everything except filterAge: the seeded bug.
func (p *Prefetcher) SaveState() ([]byte, error) {
	st := strideState{
		Clock:     p.clock,
		Filter:    append([]uint64(nil), p.filter[:]...),
		FilterLen: p.filterLen,
	}
	for i := range p.entries {
		e := &p.entries[i]
		st.Entries = append(st.Entries, entryState{
			PC: e.pc, LastAddr: e.lastAddr, Stride: e.stride,
			Conf: e.conf, Valid: e.valid,
		})
	}
	return json.Marshal(st)
}

// RestoreState is SaveState's inverse, equally ignorant of filterAge.
func (p *Prefetcher) RestoreState(data []byte) error {
	var st strideState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	for i := range p.entries {
		e := st.Entries[i]
		p.entries[i] = entry{pc: e.PC, lastAddr: e.LastAddr, stride: e.Stride, conf: e.Conf, valid: e.Valid}
	}
	p.clock = st.Clock
	copy(p.filter[:], st.Filter)
	p.filterLen = st.FilterLen
	return nil
}
