package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"bopsim/internal/cache"
	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/mem"
	"bopsim/internal/tlb"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// The record codec: the snapshot and the result record (entry.go) are
// positional records, each after one header, written by encoder and read by
// decoder, here. The snapshot's layout is in the package comment of
// checkpoint.go.

// Checkpoint serializes the simulation's state at the warmup barrier. It is
// only valid when AtBarrier reports true (after RunWarmup, before any
// measured cycle); any other point has in-flight state the format cannot
// carry, and Checkpoint reports an error rather than guessing. The record it
// returns is one allocation of its own length (checkpointBuf).
func (s *Simulation) Checkpoint() ([]byte, error) {
	checkpointBuf.Lock()
	defer checkpointBuf.Unlock()
	b, err := s.AppendCheckpoint(checkpointBuf.b[:0])
	checkpointBuf.b = b
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// checkpointBuf is what Checkpoint packs a record into before copying it out
// at its own length. A record's length is known only once its caches are
// packed, and sizing it by a first pass over the caches costs two thirds of
// the packing; the copy costs a few percent. It keeps the largest record the
// process has written.
var checkpointBuf struct {
	sync.Mutex
	b []byte
}

// AppendCheckpoint is Checkpoint appending the record to dst, which grows
// as append grows it: a writer that keeps one buffer across checkpoints
// allocates nothing once the buffer has reached a record's size.
func (s *Simulation) AppendCheckpoint(dst []byte) ([]byte, error) {
	snap, err := s.barrierState()
	if err != nil {
		return dst, err
	}
	return appendSnapshot(dst, &snap), nil
}

// barrierState reads the machine at its barrier, every cache as a view
// (uncore.Hierarchy.SaveView) the codec packs straight into its buffer.
func (s *Simulation) barrierState() (snapshot, error) {
	if s.err == errClosed {
		return snapshot{}, errClosed
	}
	if !s.AtBarrier() {
		return snapshot{}, fmt.Errorf("engine: Checkpoint is only valid at the warmup barrier (call RunWarmup first)")
	}
	sig, err := s.opts.WarmupSignature()
	if err != nil {
		return snapshot{}, err
	}
	snap := snapshot{Sig: sig, Cycles: s.now, Cores: make([]cpu.State, len(s.cores))}
	for i, c := range s.cores {
		if snap.Cores[i], err = c.SaveState(); err != nil {
			return snapshot{}, fmt.Errorf("engine: %w", err)
		}
	}
	if snap.Uncore, err = s.hier.SaveView(); err != nil {
		return snapshot{}, fmt.Errorf("engine: %w", err)
	}
	return snap, nil
}

// maxGenDepth bounds how deeply a generator state nests mix sub-states. A
// record is refused past it, so a hostile one cannot recurse once per byte.
const maxGenDepth = 16

// hierCounters lists the fields of s in declaration order: what a result
// record writes for a uncore.Stats, one uvarint each.
func hierCounters(s *uncore.Stats) [19]*uint64 {
	return [...]*uint64{
		&s.DL1Hits, &s.DL1Misses, &s.L2Hits, &s.L2Misses,
		&s.L2PrefetchedHits, &s.L3Hits, &s.L3Misses, &s.PrefIssued,
		&s.PrefDroppedDup, &s.PrefDroppedTagCheck, &s.PrefLatePromotions,
		&s.PrefCancelled, &s.StridePrefIssued, &s.StridePrefDroppedTLB,
		&s.TLBWalks, &s.L2FQOccupancySum, &s.L3FQOccupancySum,
		&s.MSHROccupancySum, &s.PrefQOccupancySum,
	}
}

// dramCounters lists the scalar fields of s in declaration order, as
// hierCounters does for a uncore.Stats.
func dramCounters(s *dram.Stats) [6]*uint64 {
	return [...]*uint64{&s.Reads, &s.Writes, &s.RowHits, &s.RowClosed, &s.RowConflicts, &s.UrgentReads}
}

// encoder appends a record to b.
type encoder struct{ b []byte }

// appendSnapshot appends the record of snap to b.
func appendSnapshot(b []byte, snap *snapshot) []byte {
	e := encoder{b: b}
	e.snapshot(snap)
	return e.b
}

// header writes the header every record begins with: a 4-byte magic naming
// the kind of record, then ModelVersion.
func (e *encoder) header(magic string) {
	e.b = append(e.b, magic...)
	e.uvarint(ModelVersion)
}

func (e *encoder) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *encoder) varint(v int64) { e.b = binary.AppendVarint(e.b, v) }

// float writes the IEEE 754 bits of v, little-endian.
func (e *encoder) float(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }

func (e *encoder) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *encoder) bytes(s []byte) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) string(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *encoder) uvarints(s []uint64) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		e.uvarint(v)
	}
}

func (e *encoder) uvarints32(s []uint32) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		e.uvarint(uint64(v))
	}
}

func (e *encoder) varints(s []int64) {
	e.uvarint(uint64(len(s)))
	for _, v := range s {
		e.varint(v)
	}
}

// hierStats writes every counter of s.
func (e *encoder) hierStats(s *uncore.Stats) {
	for _, p := range hierCounters(s) {
		e.uvarint(*p)
	}
}

// dramStats writes the counters of s, then PerCoreReads.
func (e *encoder) dramStats(s *dram.Stats) {
	for _, p := range dramCounters(s) {
		e.uvarint(*p)
	}
	e.uvarints(s.PerCoreReads)
}

func (e *encoder) snapshot(snap *snapshot) {
	e.header(snapshotMagic)
	e.string(snap.Sig)
	e.uvarint(snap.Cycles)
	e.uvarint(uint64(len(snap.Cores)))
	for i := range snap.Cores {
		e.core(&snap.Cores[i])
	}
	e.hierarchy(&snap.Uncore)
}

func (e *encoder) core(c *cpu.State) {
	e.uvarint(c.Retired)
	e.bool(c.Pending != nil)
	if p := c.Pending; p != nil {
		e.uvarint(uint64(p.Op))
		e.uvarint(p.PC)
		e.uvarint(uint64(p.VA))
		e.bool(p.DepPrevLoad)
	}
	e.gen(&c.Gen)
}

func (e *encoder) gen(g *trace.GenState) {
	e.string(g.Kind)
	e.uvarint(g.Rand)
	e.uvarint(g.AluPC)
	e.uvarint(uint64(len(g.Comps)))
	for i := range g.Comps {
		c := &g.Comps[i]
		e.uvarint(c.Pos)
		e.varint(int64(c.WordIdx))
		e.varint(int64(c.Idx))
		e.uvarint(c.PCNext)
		e.varints(c.Positions)
		e.varints(c.Starts)
		e.varint(int64(c.Cur))
		e.bool(c.Staggered)
	}
	e.varint(int64(g.Idx))
	e.uvarint(g.Wraps)
	e.uvarint(uint64(len(g.Subs)))
	for i := range g.Subs {
		e.gen(&g.Subs[i])
	}
}

func (e *encoder) hierarchy(h *uncore.State) {
	e.uvarint(uint64(len(h.DL1)))
	for i := range h.DL1 {
		e.cache(&h.DL1[i])
	}
	e.uvarint(uint64(len(h.L2)))
	for i := range h.L2 {
		e.cache(&h.L2[i])
	}
	e.cache(&h.L3)
	e.uvarint(uint64(len(h.TLBs)))
	for i := range h.TLBs {
		t := &h.TLBs[i]
		e.tlbLevel(&t.DTLB1)
		e.tlbLevel(&t.TLB2)
	}
	e.uvarint(uint64(len(h.DRAM.Channels)))
	for i := range h.DRAM.Channels {
		e.channel(&h.DRAM.Channels[i])
	}
}

// cache writes one cache's state. Its two packed sections each take a
// four-byte length, so a view's records go straight into b and the length
// is filled in after them.
func (e *encoder) cache(c *cache.State) {
	e.varint(int64(c.NumLines))
	at := e.section()
	e.b = c.AppendLines(e.b)
	e.endSection(at)
	p := &c.Policy
	e.string(p.Name)
	e.varint(int64(p.NumStamps))
	at = e.section()
	e.b = c.AppendStamps(e.b)
	e.endSection(at)
	e.uvarint(p.Clock)
	e.uvarint(p.Rand)
	e.bytes(p.RRPV)
	e.varint(int64(p.PSel))
	e.uvarints32(p.PolicySel)
	e.uvarints32(p.CoreMiss)
}

// section reserves a packed section's length and returns where it is.
func (e *encoder) section() int {
	e.b = append(e.b, 0, 0, 0, 0)
	return len(e.b) - 4
}

// endSection fills in the length of the section that began at at.
func (e *encoder) endSection(at int) {
	binary.BigEndian.PutUint32(e.b[at:], uint32(len(e.b)-at-4))
}

func (e *encoder) tlbLevel(l *tlb.LevelState) {
	e.uvarints(l.VPNs)
	e.uvarints(l.Stamps)
	e.uvarint(l.Clock)
}

func (e *encoder) channel(c *dram.ControllerState) {
	e.uvarint(uint64(len(c.Banks)))
	for _, b := range c.Banks {
		e.varint(b.OpenRow)
		e.uvarint(b.RowOpenAt)
		e.uvarint(b.PreReadyAt)
	}
	e.uvarints32(c.Fair)
	e.varint(int64(c.Served))
	e.uvarint(c.BusFreeAt)
	e.uvarint(c.ReadCASAt)
	e.varint(int64(c.WritesInBatch))
}

// decodeSnapshot reads the record data. The packed sections and the RRPVs
// of the snapshot it returns alias data, and nothing else does: strings and
// element slices are copies, and every RestoreState copies what it keeps.
// It accepts data only when appendSnapshot would write data back: every
// varint is minimal, every flag byte is 0 or 1, nothing follows the last
// field, and every count and length is checked against the bytes left
// before anything is allocated for it.
func decodeSnapshot(data []byte) (snapshot, error) {
	if len(data) > maxSnapshotBytes {
		return snapshot{}, fmt.Errorf("engine: snapshot of %d bytes exceeds the %d-byte limit", len(data), maxSnapshotBytes)
	}
	r := decoder{b: data, size: len(data), kind: "snapshot"}
	if err := r.header(snapshotMagic); err != nil {
		return snapshot{}, err
	}
	var snap snapshot
	snap.Sig = string(r.bytes("signature"))
	snap.Cycles = r.uvarint("barrier cycle")
	if n := r.count("cores"); n > 0 {
		snap.Cores = make([]cpu.State, n)
		for i := range snap.Cores {
			r.core(&snap.Cores[i])
		}
	}
	r.hierarchy(&snap.Uncore)
	if err := r.end(); err != nil {
		return snapshot{}, err
	}
	return snap, nil
}

// decoder walks a record. The first malformed field records an error naming
// it at its offset and empties b, so every later read fails too and yields
// zero.
type decoder struct {
	b    []byte
	size int    // of the whole record, for offsets in errors
	kind string // what the record is, for errors
	err  error
}

func (r *decoder) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("engine: malformed %s at byte %d: %s", r.kind, r.size-len(r.b), fmt.Sprintf(format, args...))
	}
	r.b = nil
}

// header checks a record's header: a record of another kind or another
// ModelVersion is refused by it, whatever follows.
func (r *decoder) header(magic string) error {
	if len(r.b) < len(magic) || string(r.b[:len(magic)]) != magic {
		return fmt.Errorf("engine: not a %s", r.kind)
	}
	r.b = r.b[len(magic):]
	if v := r.uvarint("version"); r.err != nil {
		return r.err
	} else if v != ModelVersion {
		return fmt.Errorf("engine: %s version %d, this binary speaks %d", r.kind, v, ModelVersion)
	}
	return nil
}

// end returns the first error of the walk, or an error when bytes follow
// the last field.
func (r *decoder) end() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d bytes after the last field", len(r.b))
	}
	return r.err
}

func (r *decoder) uvarint(field string) uint64 {
	v, n := binary.Uvarint(r.b)
	// Only a one-byte varint may end in zero: anything else is overlong.
	if n <= 0 || n > 1 && r.b[n-1] == 0 {
		r.fail("truncated or overlong %s", field)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *decoder) varint(field string) int64 {
	u := r.uvarint(field)
	return int64(u>>1) ^ -int64(u&1)
}

// int reads a zig-zag varint into an int.
func (r *decoder) int(field string) int {
	v := r.varint(field)
	if int64(int(v)) != v {
		r.fail("%s %d does not fit an int", field, v)
		return 0
	}
	return int(v)
}

// float reads the IEEE 754 bits of a float64, little-endian.
func (r *decoder) float(field string) float64 {
	if len(r.b) < 8 {
		r.fail("truncated %s", field)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *decoder) bool(field string) bool {
	if len(r.b) == 0 || r.b[0] > 1 {
		r.fail("%s is not a 0 or 1 byte", field)
		return false
	}
	v := r.b[0] == 1
	r.b = r.b[1:]
	return v
}

// count reads the number of elements of a list each of which takes at
// least one byte, refusing one larger than the bytes left.
func (r *decoder) count(field string) int {
	n := r.uvarint(field)
	if n > uint64(len(r.b)) {
		r.fail("%d %s in %d bytes", n, field, len(r.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes, aliasing the record.
func (r *decoder) take(n uint64, field string) []byte {
	if n > uint64(len(r.b)) {
		r.fail("%s of %d bytes in %d", field, n, len(r.b))
		return nil
	}
	s := r.b[:n:n]
	r.b = r.b[n:]
	return s
}

// bytes reads a uvarint length and that many bytes; an empty run reads nil.
func (r *decoder) bytes(field string) []byte {
	if s := r.take(r.uvarint(field), field); len(s) > 0 {
		return s
	}
	return nil
}

// section reads a packed section: a four-byte length and its bytes.
func (r *decoder) section(field string) []byte {
	if len(r.b) < 4 {
		r.fail("truncated %s length", field)
		return nil
	}
	n := binary.BigEndian.Uint32(r.b)
	r.b = r.b[4:]
	if s := r.take(uint64(n), field); len(s) > 0 {
		return s
	}
	return nil
}

func (r *decoder) uvarints(field string) []uint64 {
	n := r.count(field)
	if n == 0 {
		return nil
	}
	s := make([]uint64, n)
	for i := range s {
		s[i] = r.uvarint(field)
	}
	return s
}

func (r *decoder) uvarints32(field string) []uint32 {
	n := r.count(field)
	if n == 0 {
		return nil
	}
	s := make([]uint32, n)
	for i := range s {
		v := r.uvarint(field)
		if v > 1<<32-1 {
			r.fail("%s %d does not fit 32 bits", field, v)
		}
		s[i] = uint32(v)
	}
	return s
}

func (r *decoder) varints(field string) []int64 {
	n := r.count(field)
	if n == 0 {
		return nil
	}
	s := make([]int64, n)
	for i := range s {
		s[i] = r.varint(field)
	}
	return s
}

func (r *decoder) hierStats(s *uncore.Stats) {
	for _, p := range hierCounters(s) {
		*p = r.uvarint("hierarchy counter")
	}
}

func (r *decoder) dramStats(s *dram.Stats) {
	for _, p := range dramCounters(s) {
		*p = r.uvarint("DRAM counter")
	}
	s.PerCoreReads = r.uvarints("per-core reads")
}

func (r *decoder) core(c *cpu.State) {
	c.Retired = r.uvarint("retired count")
	if r.bool("pending flag") {
		op := r.uvarint("pending op")
		if op > 0xff {
			r.fail("pending op %d does not fit a byte", op)
		}
		c.Pending = &trace.Inst{Op: trace.Op(op), PC: r.uvarint("pending PC")}
		c.Pending.VA = mem.Addr(r.uvarint("pending VA"))
		c.Pending.DepPrevLoad = r.bool("pending dependence flag")
	}
	r.gen(&c.Gen, 0)
}

func (r *decoder) gen(g *trace.GenState, depth int) {
	if depth > maxGenDepth {
		r.fail("generator state nests more than %d deep", maxGenDepth)
		return
	}
	g.Kind = tag(r.bytes("generator kind"))
	g.Rand = r.uvarint("generator random stream")
	g.AluPC = r.uvarint("generator ALU PC")
	if n := r.count("generator components"); n > 0 {
		g.Comps = make([]trace.ComponentState, n)
		for i := range g.Comps {
			c := &g.Comps[i]
			c.Pos = r.uvarint("component position")
			c.WordIdx = r.int("component word index")
			c.Idx = r.int("component index")
			c.PCNext = r.uvarint("component next PC")
			c.Positions = r.varints("component stripe positions")
			c.Starts = r.varints("component stripe starts")
			c.Cur = r.int("component stripe cursor")
			c.Staggered = r.bool("component stagger flag")
		}
	}
	g.Idx = r.int("generator cursor")
	g.Wraps = r.uvarint("generator wraps")
	if n := r.count("generator sub-states"); n > 0 {
		g.Subs = make([]trace.GenState, n)
		for i := range g.Subs {
			r.gen(&g.Subs[i], depth+1)
		}
	}
}

func (r *decoder) hierarchy(h *uncore.State) {
	h.DL1 = r.caches("DL1 caches")
	h.L2 = r.caches("L2 caches")
	r.cache(&h.L3)
	if n := r.count("TLB hierarchies"); n > 0 {
		h.TLBs = make([]tlb.State, n)
		for i := range h.TLBs {
			t := &h.TLBs[i]
			r.tlbLevel(&t.DTLB1)
			r.tlbLevel(&t.TLB2)
		}
	}
	if n := r.count("DRAM channels"); n > 0 {
		h.DRAM.Channels = make([]dram.ControllerState, n)
		for i := range h.DRAM.Channels {
			r.channel(&h.DRAM.Channels[i])
		}
	}
}

func (r *decoder) caches(field string) []cache.State {
	n := r.count(field)
	if n == 0 {
		return nil
	}
	s := make([]cache.State, n)
	for i := range s {
		r.cache(&s[i])
	}
	return s
}

func (r *decoder) cache(c *cache.State) {
	c.NumLines = r.int("cache line count")
	c.Lines = r.section("packed lines")
	p := &c.Policy
	p.Name = tag(r.bytes("policy name"))
	p.NumStamps = r.int("policy stamp count")
	p.Stamps = r.section("packed stamps")
	p.Clock = r.uvarint("policy clock")
	p.Rand = r.uvarint("policy random stream")
	p.RRPV = r.bytes("RRPVs")
	p.PSel = r.int("PSEL")
	p.PolicySel = r.uvarints32("policy selection counters")
	p.CoreMiss = r.uvarints32("core miss counters")
}

// tag returns b as a string, without allocating for the policy names and
// generator kinds the tree writes.
func tag(b []byte) string {
	for _, t := range [...]string{"LRU", "DRRIP", "5P", "workload", "file", "mix"} {
		if string(b) == t {
			return t
		}
	}
	return string(b)
}

func (r *decoder) tlbLevel(l *tlb.LevelState) {
	l.VPNs = r.uvarints("TLB VPNs")
	l.Stamps = r.uvarints("TLB stamps")
	l.Clock = r.uvarint("TLB clock")
}

func (r *decoder) channel(c *dram.ControllerState) {
	if n := r.count("DRAM banks"); n > 0 {
		c.Banks = make([]dram.BankState, n)
		for i := range c.Banks {
			b := &c.Banks[i]
			b.OpenRow = r.varint("bank open row")
			b.RowOpenAt = r.uvarint("bank row-open cycle")
			b.PreReadyAt = r.uvarint("bank precharge-ready cycle")
		}
	}
	c.Fair = r.uvarints32("fairness counters")
	c.Served = r.int("served core")
	c.BusFreeAt = r.uvarint("bus-free cycle")
	c.ReadCASAt = r.uvarint("read CAS cycle")
	c.WritesInBatch = r.int("writes in batch")
}
