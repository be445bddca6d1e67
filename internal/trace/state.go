package trace

import (
	"fmt"

	"bopsim/internal/mem"
)

// Checkpoint state for generators. A Generator is an infinite deterministic
// stream, so its whole state is a cursor: the random stream plus each
// pattern component's position. StatefulGenerator is implemented by every
// in-tree generator (Workload, including the thrasher, and FileTrace); the
// engine refuses to checkpoint a simulation driven by a generator that does
// not implement it.

// GenState is the serialized cursor of one generator. Kind selects which
// fields are meaningful: "workload" uses Rand/AluPC/Comps, "file" uses
// Idx/Wraps, "mix" uses Rand/Subs (one entry per sub-generator). Every
// registered generator implements StatefulGenerator, whose save/restore
// pair is the codec for its kind, and restore validates the kind tag so a
// cursor can never be fed into a generator of a different shape.
type GenState struct {
	Kind  string
	Rand  uint64
	AluPC uint64
	Comps []ComponentState
	Idx   int
	Wraps uint64
	Subs  []GenState
}

// ComponentState is the cursor of one workload pattern component. It is the
// union of every component type's fields; each type reads the ones it owns.
type ComponentState struct {
	Pos       uint64
	WordIdx   int
	Idx       int
	PCNext    uint64
	Positions []int64
	Starts    []int64
	Cur       int
	Staggered bool
}

// StatefulGenerator is a Generator whose cursor can be saved and restored,
// for checkpoint/restore of a running simulation.
type StatefulGenerator interface {
	Generator
	SaveGenState() GenState
	RestoreGenState(GenState) error
}

var (
	_ StatefulGenerator = (*Workload)(nil)
	_ StatefulGenerator = (*FileTrace)(nil)
	_ StatefulGenerator = (*mixGen)(nil)
)

// SaveGenState implements StatefulGenerator.
func (w *Workload) SaveGenState() GenState {
	st := GenState{Kind: "workload", Rand: w.rand.State(), AluPC: w.aluPC}
	for _, wc := range w.comps {
		st.Comps = append(st.Comps, wc.comp.saveState())
	}
	return st
}

// RestoreGenState implements StatefulGenerator.
func (w *Workload) RestoreGenState(st GenState) error {
	if st.Kind != "workload" {
		return fmt.Errorf("trace: generator state kind %q, want \"workload\"", st.Kind)
	}
	if len(st.Comps) != len(w.comps) {
		return fmt.Errorf("trace: state has %d components, workload %s has %d", len(st.Comps), w.name, len(w.comps))
	}
	for i, wc := range w.comps {
		if err := wc.comp.restoreState(st.Comps[i]); err != nil {
			return fmt.Errorf("trace: workload %s component %d: %w", w.name, i, err)
		}
	}
	w.rand.SetState(st.Rand)
	w.aluPC = st.AluPC
	return nil
}

// SaveGenState implements StatefulGenerator.
func (t *FileTrace) SaveGenState() GenState {
	return GenState{Kind: "file", Idx: t.idx, Wraps: t.Wraps}
}

// RestoreGenState implements StatefulGenerator.
func (t *FileTrace) RestoreGenState(st GenState) error {
	if st.Kind != "file" {
		return fmt.Errorf("trace: generator state kind %q, want \"file\"", st.Kind)
	}
	if st.Idx < 0 || st.Idx >= t.count {
		return fmt.Errorf("trace: cursor %d out of range for %d-instruction trace", st.Idx, t.count)
	}
	t.idx = st.Idx
	t.Wraps = st.Wraps
	return nil
}

func addrFromState(v uint64) mem.Addr { return mem.Addr(v) }

func (s *streamComp) saveState() ComponentState {
	return ComponentState{Pos: uint64(s.pos)}
}

func (s *streamComp) restoreState(st ComponentState) error {
	s.pos = addrFromState(st.Pos)
	return nil
}

func (c *chunkComp) saveState() ComponentState {
	return ComponentState{Pos: uint64(c.pos), WordIdx: c.wordIdx}
}

func (c *chunkComp) restoreState(st ComponentState) error {
	if st.WordIdx < 0 || st.WordIdx >= c.chunkWords {
		return fmt.Errorf("chunk word index %d out of range 0..%d", st.WordIdx, c.chunkWords-1)
	}
	c.pos = addrFromState(st.Pos)
	c.wordIdx = st.WordIdx
	return nil
}

func (p *patternComp) saveState() ComponentState {
	return ComponentState{Pos: uint64(p.pos), Idx: p.idx, WordIdx: p.wordIdx}
}

func (p *patternComp) restoreState(st ComponentState) error {
	if st.Idx < 0 || st.Idx >= len(p.strides) {
		return fmt.Errorf("pattern stride index %d out of range 0..%d", st.Idx, len(p.strides)-1)
	}
	if st.WordIdx < 0 || st.WordIdx >= p.chunkWords {
		return fmt.Errorf("pattern word index %d out of range 0..%d", st.WordIdx, p.chunkWords-1)
	}
	p.pos = addrFromState(st.Pos)
	p.idx = st.Idx
	p.wordIdx = st.WordIdx
	return nil
}

func (s *stripesComp) saveState() ComponentState {
	return ComponentState{
		Positions: append([]int64(nil), s.positions...),
		Starts:    append([]int64(nil), s.starts...),
		Cur:       s.cur,
		WordIdx:   s.wordIdx,
		Staggered: s.staggered,
	}
}

func (s *stripesComp) restoreState(st ComponentState) error {
	if len(st.Positions) != s.stripes || len(st.Starts) != s.stripes {
		return fmt.Errorf("stripes state covers %d/%d stripes, component has %d",
			len(st.Positions), len(st.Starts), s.stripes)
	}
	if st.Cur < 0 || st.Cur >= s.stripes {
		return fmt.Errorf("stripe cursor %d out of range 0..%d", st.Cur, s.stripes-1)
	}
	if st.WordIdx < 0 || st.WordIdx >= s.chunkWords {
		return fmt.Errorf("stripes word index %d out of range 0..%d", st.WordIdx, s.chunkWords-1)
	}
	copy(s.positions, st.Positions)
	copy(s.starts, st.Starts)
	s.cur = st.Cur
	s.wordIdx = st.WordIdx
	s.staggered = st.Staggered
	return nil
}

func (c *randomComp) saveState() ComponentState {
	return ComponentState{PCNext: c.pcNext}
}

func (c *randomComp) restoreState(st ComponentState) error {
	c.pcNext = st.PCNext
	return nil
}
