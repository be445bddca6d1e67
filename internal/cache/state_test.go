package cache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"

	"bopsim/internal/mem"
)

// gobRoundTrip encodes v, decodes into out, re-encodes the decoded value
// and checks the two encodings are byte-identical (the property snapshot
// content-addressing relies on).
func gobRoundTrip(t *testing.T, v any, out any) {
	t.Helper()
	var a bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(v); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(a.Bytes())).Decode(out); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(reflect.ValueOf(out).Elem().Interface()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("encode -> decode -> encode is not byte-stable")
	}
}

// TestCacheStateRoundTrip drives a cache under each policy to three fill
// levels (empty, partly filled, full), saves its state, round-trips the
// encoding, restores into a fresh cache and checks the restored state (and
// future behaviour) matches the original.
func TestCacheStateRoundTrip(t *testing.T) {
	const sets, ways = 16, 4
	mkPolicy := map[string]func() Policy{
		"LRU":   func() Policy { return NewLRU(sets, ways) },
		"BIP":   func() Policy { return NewBIP(sets, ways, 7) },
		"DRRIP": func() Policy { return NewDRRIP(sets, ways, 7) },
		"5P":    func() Policy { return NewFiveP(sets, ways, 2, 7) },
	}
	fills := []struct {
		name      string
		accesses  int
		wantValid int
	}{
		{"empty", 0, 0},
		{"partial", 20, 20},
		{"full", 500, sets * ways},
	}
	for name, mk := range mkPolicy {
		mk := mk
		t.Run(name, func(t *testing.T) {
			for _, fill := range fills {
				fill := fill
				t.Run(fill.name, func(t *testing.T) {
					c := New("t", sets*ways*mem.LineSize, ways, mk())
					for i := 0; i < fill.accesses; i++ {
						l := mem.LineAddr(i * 3)
						if c.Lookup(l) == nil {
							c.Insert(l, InsertInfo{Core: i % 2, IsPrefetch: i%5 == 0})
						}
						if i%7 == 0 {
							c.Peek(l).Dirty = true
						}
					}
					valid := 0
					for _, ln := range c.lines {
						if ln.Valid {
							valid++
						}
					}
					if valid != fill.wantValid {
						t.Fatalf("cache holds %d valid lines, the case wants %d", valid, fill.wantValid)
					}
					st := c.SaveState()
					var decoded State
					gobRoundTrip(t, st, &decoded)

					fresh := New("t", sets*ways*mem.LineSize, ways, mk())
					if err := fresh.RestoreState(decoded, 2); err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fresh.lines, c.lines) {
						t.Fatal("restored lines differ from the original's")
					}
					if !reflect.DeepEqual(fresh.SaveState(), st) {
						t.Fatal("restored cache state differs from saved state")
					}
					// Behavioural equality: the same access sequence must produce
					// the same victims and counters on both caches.
					for i := 500; i < 800; i++ {
						l := mem.LineAddr(i * 3)
						a, b := c.Lookup(l), fresh.Lookup(l)
						if (a == nil) != (b == nil) {
							t.Fatalf("lookup %d diverged after restore", i)
						}
						if a == nil {
							c.Insert(l, InsertInfo{Core: i % 2})
							fresh.Insert(l, InsertInfo{Core: i % 2})
						}
					}
					if !reflect.DeepEqual(fresh.SaveState(), c.SaveState()) {
						t.Fatal("restored cache diverged from original under identical traffic")
					}
				})
			}
		})
	}
}

// TestCacheRestoreRejectsMismatch checks geometry and policy mismatches
// fail instead of silently corrupting state.
func TestCacheRestoreRejectsMismatch(t *testing.T) {
	c := New("t", 16*4*mem.LineSize, 4, NewLRU(16, 4))
	st := c.SaveState()

	smaller := New("t", 8*4*mem.LineSize, 4, NewLRU(8, 4))
	if err := smaller.RestoreState(st, 1); err == nil {
		t.Error("restore into smaller cache succeeded")
	}
	otherPolicy := New("t", 16*4*mem.LineSize, 4, NewDRRIP(16, 4, 1))
	if err := otherPolicy.RestoreState(st, 1); err == nil {
		t.Error("restore of LRU state into DRRIP policy succeeded")
	}
	bad := st
	bad.Policy.Stamps = bad.Policy.Stamps[:1]
	if err := New("t", 16*4*mem.LineSize, 4, NewLRU(16, 4)).RestoreState(bad, 1); err == nil {
		t.Error("restore with truncated stamps succeeded")
	}
}

// TestPackedLinesRejected is the rejection matrix of the packed line
// records: every way the bytes can disagree with the format or with the
// restoring cache is an error, never a panic or a silently wrong line. The
// cache holds 8 lines and two cores own lines.
func TestPackedLinesRejected(t *testing.T) {
	// rec packs one record; address 300 takes two varint bytes.
	rec := func(delta, addr uint64, flags byte, core uint64) []byte {
		b := binary.AppendUvarint(nil, delta)
		b = binary.AppendUvarint(b, addr)
		b = append(b, flags)
		return binary.AppendUvarint(b, core)
	}
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	good := cat(rec(1, 300, 3, 1), rec(2, 5, 0, 0), rec(5, 7, 1, 1))
	cases := []struct {
		name     string
		numLines int
		lines    []byte
		ok       bool
	}{
		{"well formed, last line index 7", 8, good, true},
		{"no valid lines", 8, nil, true},
		{"NumLines below geometry", 7, good, false},
		{"NumLines above geometry", 9, good, false},
		{"first index delta 0", 8, rec(0, 300, 0, 0), false},
		{"later index delta 0", 8, cat(rec(1, 300, 0, 0), rec(0, 5, 0, 0)), false},
		{"first index past NumLines", 8, rec(9, 300, 0, 0), false},
		{"later index past NumLines", 8, cat(good, rec(1, 9, 0, 0)), false},
		{"index delta wraps int", 8, cat(rec(1, 300, 0, 0), rec(1<<63, 5, 0, 0)), false},
		{"flag byte 4", 8, rec(1, 300, 4, 0), false},
		{"flag byte 0xff", 8, rec(1, 300, 0xff, 0), false},
		{"owner core == numCores", 8, rec(1, 300, 0, 2), false},
		{"truncated index delta", 8, cat(good[:len(good)-len(rec(5, 7, 1, 1))], []byte{0x80}), false},
		{"truncated address", 8, rec(1, 300, 0, 0)[:2], false},
		{"missing flags", 8, rec(1, 300, 0, 0)[:3], false},
		{"missing owner core", 8, rec(1, 300, 0, 0)[:4], false},
		{"truncated owner core", 8, append(rec(1, 300, 0, 0)[:4], 0x80), false},
		{"overlong varint", 8, cat(bytes.Repeat([]byte{0x80}, 10), []byte{0x02}), false},
		{"trailing garbage", 8, cat(good, []byte{0x00}), false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := New("t", 2*4*mem.LineSize, 4, NewLRU(2, 4))
			st := c.SaveState()
			st.NumLines, st.Lines = tc.numLines, tc.lines
			err := c.RestoreState(st, 2)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted")
			}
			if tc.ok && !bytes.Equal(c.SaveState().Lines, tc.lines) {
				t.Fatal("accepted bytes do not re-encode to themselves")
			}
		})
	}
}

// TestPropCountersRoundTrip checks the counter bank's save/restore and its
// bounds checking.
func TestPropCountersRoundTrip(t *testing.T) {
	p := NewPropCounters(4, 7)
	for i := 0; i < 300; i++ {
		p.Inc(i % 3)
	}
	st := p.SaveState()
	fresh := NewPropCounters(4, 7)
	if err := fresh.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SaveState(), st) {
		t.Fatal("restored counters differ")
	}
	if err := fresh.RestoreState([]uint32{1}); err == nil {
		t.Error("restore with wrong counter count succeeded")
	}
	if err := fresh.RestoreState([]uint32{1 << 20, 0, 0, 0}); err == nil {
		t.Error("restore with out-of-range counter succeeded")
	}
}
