package dram

import "fmt"

// Checkpoint state. A memory system can only be checkpointed when it is
// Idle(): the warmup barrier drains every queue first, so the serialized
// state is just the banks' row/timing registers, the channel's bus and
// turnaround cycles and the scheduler's mode registers — no in-flight
// requests, and therefore no futures and no request order to serialize. It
// holds no statistics either: a snapshot is taken at the barrier, after
// ResetStats, where every counter is zero.

// BankState mirrors bankState with exported fields.
type BankState struct {
	OpenRow    int64
	RowOpenAt  uint64
	PreReadyAt uint64
}

// ControllerState is one channel's serialized state.
type ControllerState struct {
	Banks         []BankState
	Fair          []uint32
	Served        int
	BusFreeAt     uint64
	ReadCASAt     uint64
	WritesInBatch int
}

// State is the serialized state of the whole memory system.
type State struct {
	Channels []ControllerState
}

// SaveState serializes the memory system. It reports an error when requests
// are still pending — callers must drain first (see uncore's barrier).
func (m *Memory) SaveState() (State, error) {
	if !m.Idle() {
		return State{}, fmt.Errorf("dram: cannot checkpoint with requests pending")
	}
	st := State{Channels: make([]ControllerState, len(m.channels))}
	for i, c := range m.channels {
		cs := ControllerState{
			Banks:         make([]BankState, len(c.banks)),
			Fair:          c.fair.SaveState(),
			Served:        c.served,
			BusFreeAt:     c.busFreeAt,
			ReadCASAt:     c.readCASAt,
			WritesInBatch: c.writesInBatch,
		}
		for b, bank := range c.banks {
			cs.Banks[b] = BankState{OpenRow: bank.openRow, RowOpenAt: bank.rowOpenAt, PreReadyAt: bank.preReadyAt}
		}
		st.Channels[i] = cs
	}
	return st, nil
}

// RestoreState replaces the memory system's state with a previously saved
// one. The state must come from a system of identical geometry, and this
// system must be idle (freshly constructed).
func (m *Memory) RestoreState(st State) error {
	if !m.Idle() {
		return fmt.Errorf("dram: cannot restore with requests pending")
	}
	if len(st.Channels) != len(m.channels) {
		return fmt.Errorf("dram: state has %d channels, memory has %d", len(st.Channels), len(m.channels))
	}
	for i, cs := range st.Channels {
		c := m.channels[i]
		if len(cs.Banks) != len(c.banks) {
			return fmt.Errorf("dram: channel %d state has %d banks, controller has %d", i, len(cs.Banks), len(c.banks))
		}
		if cs.Served < -1 || cs.Served >= len(c.readQ) {
			return fmt.Errorf("dram: channel %d served core %d out of range", i, cs.Served)
		}
		if err := c.fair.RestoreState(cs.Fair); err != nil {
			return fmt.Errorf("dram: channel %d: %w", i, err)
		}
		for b, bs := range cs.Banks {
			c.banks[b] = bankState{openRow: bs.OpenRow, rowOpenAt: bs.RowOpenAt, preReadyAt: bs.PreReadyAt}
		}
		c.served = cs.Served
		c.busFreeAt = cs.BusFreeAt
		c.readCASAt = cs.ReadCASAt
		c.writesInBatch = cs.WritesInBatch
	}
	return nil
}

// ResetStats clears every event counter, keeping the banks' open rows and
// timing state (warmup barrier semantics: the measured region starts with
// warmed rows but zeroed counters).
func (m *Memory) ResetStats() {
	for _, c := range m.channels {
		per := c.stats.PerCoreReads
		for i := range per {
			per[i] = 0
		}
		c.stats = Stats{PerCoreReads: per}
	}
}
