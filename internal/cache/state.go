package cache

import (
	"encoding/binary"
	"fmt"

	"bopsim/internal/mem"
)

// Checkpoint state for caches and replacement policies. Every struct here
// holds only exported, fixed-order fields (no maps), so a deterministic
// encoder (gob, JSON) produces byte-stable output: encode -> decode ->
// encode yields identical bytes, which is what lets snapshots be
// content-addressed by SHA-256.

// State is the full serialized state of one Cache: the line metadata and the
// replacement policy's state. A cache keeps no counters; the hierarchy counts
// what a Result reports (uncore.Stats).
//
// Lines packs the valid lines only, in increasing index order (index =
// set*ways + way), one record per line:
//
//	uvarint  index delta: index minus the previous record's index, the
//	         first record counting from -1 (so a delta is never 0)
//	uvarint  line address, below 1<<34: it must fit a Line's address bits
//	byte     flags: bit 0 dirty, bit 1 prefetch; other bits must be 0
//	uvarint  owner core
//
// A warmed hierarchy is mostly invalid lines (the 8MB L3 alone holds
// 131072), and a generic encoder walks a []Line one reflected struct at a
// time; the packed bytes cost one copy and nothing for an invalid line.
// schemalock sees only a []byte here, so a change to the record layout
// must bump engine.SnapshotVersion by hand.
type State struct {
	NumLines int // sets*ways of the cache that wrote the state
	Lines    []byte
	Policy   PolicyState
}

// PolicyState is the union of every in-tree policy's replacement state; the
// Name field says which policy wrote it and which fields are meaningful.
// LRU/5P use the stamp fields, DRRIP uses RRPV/PSel, DRRIP/5P carry their
// random stream, and 5P adds the two proportional-counter banks.
//
// Stamps packs the non-zero stamps only, whether or not their way is valid
// (minStamp reads invalid ways too), as State.Lines packs the valid lines:
// per stamp a uvarint index delta and the uvarint stamp. As there, a change
// to the record layout must bump engine.SnapshotVersion by hand.
type PolicyState struct {
	Name      string
	NumStamps int // sets*ways of the policy that wrote the state
	Stamps    []byte
	Clock     uint64
	Rand      uint64
	RRPV      []uint8
	PSel      int
	PolicySel []uint32
	CoreMiss  []uint32
}

const (
	lineFlagDirty    = 1 << 0
	lineFlagPrefetch = 1 << 1
	lineFlagMask     = lineFlagDirty | lineFlagPrefetch
)

// SaveState serializes the cache's lines and policy state.
func (c *Cache) SaveState() State {
	var packed []byte
	prev := -1
	for i, ln := range c.lines {
		if !ln.Valid() {
			continue
		}
		var flags byte
		if ln.Dirty() {
			flags |= lineFlagDirty
		}
		if ln.Prefetch() {
			flags |= lineFlagPrefetch
		}
		packed = binary.AppendUvarint(packed, uint64(i-prev))
		packed = binary.AppendUvarint(packed, uint64(ln.Addr()))
		packed = append(packed, flags)
		packed = binary.AppendUvarint(packed, uint64(ln.Core()))
		prev = i
	}
	return State{
		NumLines: len(c.lines),
		Lines:    packed,
		Policy:   c.policy.SaveState(),
	}
}

// RestoreState replaces the cache's contents with a previously saved state.
// The state must come from a cache of identical geometry and policy, and
// every line's owner core must be below numCores: the owner is used as an
// index downstream (write-back routing, the DRAM per-core queues, 5P's
// per-core counters), so a decodable but corrupt state is refused here
// rather than left to panic mid-run. After an error the cache holds a
// partial restore and must be discarded.
func (c *Cache) RestoreState(s State, numCores int) error {
	if s.NumLines != len(c.lines) {
		return fmt.Errorf("cache %s: state has %d lines, cache holds %d", c.name, s.NumLines, len(c.lines))
	}
	if err := c.policy.RestoreState(s.Policy); err != nil {
		return fmt.Errorf("cache %s: %w", c.name, err)
	}
	c.Reset()
	if err := c.unpackLines(s.Lines, numCores); err != nil {
		return fmt.Errorf("cache %s: packed lines: %w", c.name, err)
	}
	return nil
}

// recordReader walks packed records (State.Lines, PolicyState.Stamps) that
// each begin with an index delta into an array of n entries.
type recordReader struct {
	packed []byte
	idx, n int
}

// uvarint reads one field of the record at the head of packed.
func (r *recordReader) uvarint(field string) (uint64, error) {
	v, n := binary.Uvarint(r.packed)
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong %s", field)
	}
	r.packed = r.packed[n:]
	return v, nil
}

// next reads the index delta that begins a record and returns the index.
func (r *recordReader) next() (int, error) {
	delta, err := r.uvarint("index delta")
	if err != nil {
		return 0, err
	}
	// Compared as a distance so a huge delta cannot wrap the index.
	if delta == 0 || delta > uint64(r.n-1-r.idx) {
		return 0, fmt.Errorf("index delta %d after entry %d of %d", delta, r.idx, r.n)
	}
	r.idx += int(delta)
	return r.idx, nil
}

// unpackLines decodes State.Lines records into the (cleared) cache.
func (c *Cache) unpackLines(packed []byte, numCores int) error {
	r := recordReader{packed: packed, idx: -1, n: len(c.lines)}
	for len(r.packed) > 0 {
		idx, err := r.next()
		if err != nil {
			return err
		}
		addr, err := r.uvarint("address")
		if err != nil {
			return err
		}
		// Refused, never truncated: a truncated address would alias
		// another line.
		if addr > lineAddrMask {
			return fmt.Errorf("line address %#x does not fit %d bits", addr, lineAddrBits)
		}
		if len(r.packed) == 0 {
			return fmt.Errorf("truncated flags")
		}
		flags := r.packed[0]
		r.packed = r.packed[1:]
		if flags&^lineFlagMask != 0 {
			return fmt.Errorf("flag byte %#x", flags)
		}
		core, err := r.uvarint("owner core")
		if err != nil {
			return err
		}
		if core >= uint64(numCores) {
			return fmt.Errorf("line owned by core %d, hierarchy has %d cores", core, numCores)
		}
		c.lines[idx] = makeLine(mem.LineAddr(addr), int(core), flags&lineFlagPrefetch != 0, flags&lineFlagDirty != 0)
	}
	return nil
}

// save/restore serialize the stamp machinery shared by LRU and 5P.
func (s *lruState) save(name string) PolicyState {
	var packed []byte
	prev := -1
	for i, stamp := range s.stamps {
		if stamp == 0 {
			continue
		}
		packed = binary.AppendUvarint(packed, uint64(i-prev))
		packed = binary.AppendUvarint(packed, stamp)
		prev = i
	}
	return PolicyState{Name: name, NumStamps: len(s.stamps), Stamps: packed, Clock: s.clock}
}

// restore replaces the stamps and clock with a saved state's. After an
// error the policy holds a partial restore and must be discarded.
func (s *lruState) restore(st PolicyState) error {
	if st.NumStamps != len(s.stamps) {
		return fmt.Errorf("policy %s: state has %d stamps, policy holds %d", st.Name, st.NumStamps, len(s.stamps))
	}
	if err := unpackStamps(s.stamps, st.Stamps); err != nil {
		return fmt.Errorf("policy %s: packed stamps: %w", st.Name, err)
	}
	s.clock = st.Clock
	return nil
}

// unpackStamps decodes PolicyState.Stamps records over the stamps.
func unpackStamps(stamps []uint64, packed []byte) error {
	clear(stamps)
	r := recordReader{packed: packed, idx: -1, n: len(stamps)}
	for len(r.packed) > 0 {
		idx, err := r.next()
		if err != nil {
			return err
		}
		stamp, err := r.uvarint("stamp")
		if err != nil {
			return err
		}
		// A zero stamp is never written: accepting one would give one state
		// two encodings and break encode -> decode -> encode stability.
		if stamp == 0 {
			return fmt.Errorf("zero stamp at entry %d", idx)
		}
		stamps[idx] = stamp
	}
	return nil
}

func checkPolicyName(st PolicyState, want string) error {
	if st.Name != want {
		return fmt.Errorf("policy state is %q, want %q", st.Name, want)
	}
	return nil
}

// SaveState implements Policy.
func (p *LRU) SaveState() PolicyState { return p.state.save("LRU") }

// RestoreState implements Policy.
func (p *LRU) RestoreState(st PolicyState) error {
	if err := checkPolicyName(st, "LRU"); err != nil {
		return err
	}
	return p.state.restore(st)
}

// SaveState implements Policy.
func (d *DRRIP) SaveState() PolicyState {
	return PolicyState{
		Name: "DRRIP",
		RRPV: append([]uint8(nil), d.rrpv...),
		PSel: d.psel,
		Rand: d.rand.State(),
	}
}

// RestoreState implements Policy.
func (d *DRRIP) RestoreState(st PolicyState) error {
	if err := checkPolicyName(st, "DRRIP"); err != nil {
		return err
	}
	if len(st.RRPV) != len(d.rrpv) {
		return fmt.Errorf("DRRIP: state has %d RRPVs, policy holds %d", len(st.RRPV), len(d.rrpv))
	}
	if st.PSel < 0 || st.PSel > d.pselMax {
		return fmt.Errorf("DRRIP: PSEL %d out of range 0..%d", st.PSel, d.pselMax)
	}
	copy(d.rrpv, st.RRPV)
	d.psel = st.PSel
	d.rand.SetState(st.Rand)
	return nil
}

// SaveState implements Policy.
func (p *FiveP) SaveState() PolicyState {
	st := p.state.save("5P")
	st.Rand = p.rand.State()
	st.PolicySel = p.policySel.SaveState()
	st.CoreMiss = p.coreMiss.SaveState()
	return st
}

// RestoreState implements Policy.
func (p *FiveP) RestoreState(st PolicyState) error {
	if err := checkPolicyName(st, "5P"); err != nil {
		return err
	}
	if err := p.state.restore(st); err != nil {
		return err
	}
	if err := p.policySel.RestoreState(st.PolicySel); err != nil {
		return fmt.Errorf("5P policy counters: %w", err)
	}
	if err := p.coreMiss.RestoreState(st.CoreMiss); err != nil {
		return fmt.Errorf("5P core-miss counters: %w", err)
	}
	p.rand.SetState(st.Rand)
	return nil
}

// SaveState serializes the counter bank.
func (p *PropCounters) SaveState() []uint32 {
	return append([]uint32(nil), p.counters...)
}

// RestoreState replaces the counters with a previously saved bank of the
// same shape.
func (p *PropCounters) RestoreState(counters []uint32) error {
	if len(counters) != len(p.counters) {
		return fmt.Errorf("prop counters: state has %d counters, bank holds %d", len(counters), len(p.counters))
	}
	for _, v := range counters {
		if v > p.max {
			return fmt.Errorf("prop counters: value %d exceeds maximum %d", v, p.max)
		}
	}
	copy(p.counters, counters)
	return nil
}
