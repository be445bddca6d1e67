package dram

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"bopsim/internal/mem"
)

// warmMemory drives mixed read/write traffic through a memory system and
// ticks it until idle, leaving warmed bank rows and scheduler state.
func warmMemory(t *testing.T) *Memory {
	t.Helper()
	m := New(DefaultParams(2))
	for i := 0; i < 64; i++ {
		line := mem.LineAddr(i * 37)
		if m.EnqueueRead(line, i%2, Pending()) == nil {
			t.Fatalf("read %d rejected", i)
		}
		m.EnqueueWrite(line+5000, i%2)
	}
	for now := uint64(0); !m.Idle(); now++ {
		m.Tick(now)
		if now > 1_000_000 {
			t.Fatal("memory never went idle")
		}
	}
	return m
}

// TestMemoryStateRoundTrip saves a warmed (idle) memory system, checks the
// encoding is byte-stable, restores into a fresh system and verifies both
// behave identically from there on.
func TestMemoryStateRoundTrip(t *testing.T) {
	m := warmMemory(t)
	st, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	var a bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := gob.NewDecoder(bytes.NewReader(a.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("DRAM state encode -> decode -> encode is not byte-stable")
	}

	fresh := New(DefaultParams(2))
	if err := fresh.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("restored DRAM state differs from saved state")
	}

	// Identical traffic from the restored point must resolve at identical
	// cycles (open rows, bus state and fairness counters all participate).
	// The state carries no counter: a barrier zeroes them before it is
	// saved, so the original counts from zero too.
	m.ResetStats()
	const start = 2_000_000
	futA, futB := Pending(), Pending()
	m.EnqueueRead(12345, 0, futA)
	fresh.EnqueueRead(12345, 0, futB)
	for now := uint64(start); !(futA.Resolved() && futB.Resolved()); now++ {
		m.Tick(now)
		fresh.Tick(now)
		if now > start+1_000_000 {
			t.Fatal("reads never resolved")
		}
	}
	if futA.Cycle() != futB.Cycle() {
		t.Fatalf("post-restore read resolved at %d on original, %d on restored", futA.Cycle(), futB.Cycle())
	}
	if !reflect.DeepEqual(m.TotalStats(), fresh.TotalStats()) {
		t.Fatal("stats diverged under identical traffic after restore")
	}
}

// TestMemorySaveStateRefusesPending checks an un-drained memory system
// cannot be checkpointed.
func TestMemorySaveStateRefusesPending(t *testing.T) {
	m := New(DefaultParams(1))
	if m.EnqueueRead(1, 0, Pending()) == nil {
		t.Fatal("enqueue rejected")
	}
	if _, err := m.SaveState(); err == nil {
		t.Error("SaveState with a pending read succeeded")
	}
}

// TestMemoryRestoreRejectsMismatch checks geometry mismatches are refused.
func TestMemoryRestoreRejectsMismatch(t *testing.T) {
	m := warmMemory(t)
	st, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if err := New(DefaultParams(4)).RestoreState(st); err == nil {
		t.Error("restore into a system serving a different core count succeeded")
	}
	bad := st
	bad.Channels = bad.Channels[:1]
	if err := New(DefaultParams(2)).RestoreState(bad); err == nil {
		t.Error("restore with a missing channel succeeded")
	}
}

// TestMemoryResetStats checks counters clear while bank state persists.
func TestMemoryResetStats(t *testing.T) {
	m := warmMemory(t)
	if s := m.TotalStats(); s.Reads+s.Writes == 0 {
		t.Fatal("warmup produced no accesses")
	}
	st, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	if s := m.TotalStats(); s.Reads+s.Writes != 0 {
		t.Fatal("ResetStats left access counters non-zero")
	}
	st2, err := m.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Channels[0].Banks, st2.Channels[0].Banks) {
		t.Fatal("ResetStats disturbed bank state")
	}
}
