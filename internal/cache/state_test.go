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
							c.Place(l, InsertInfo{Core: i % 2, IsPrefetch: i%5 == 0})
						}
						if i%7 == 0 {
							c.Peek(l).SetDirty()
						}
					}
					valid := 0
					for _, ln := range c.lines {
						if ln.Valid() {
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
							c.Place(l, InsertInfo{Core: i % 2})
							fresh.Place(l, InsertInfo{Core: i % 2})
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
	bad.Policy.NumStamps--
	if err := New("t", 16*4*mem.LineSize, 4, NewLRU(16, 4)).RestoreState(bad, 1); err == nil {
		t.Error("restore with a short stamp count succeeded")
	}
}

// lruStateOf returns the stamp machinery of an LRU or 5P policy.
func lruStateOf(t *testing.T, p Policy) *lruState {
	t.Helper()
	switch p := p.(type) {
	case *LRU:
		return p.state
	case *FiveP:
		return p.state
	}
	t.Fatalf("policy %s keeps no stamps", p.Name())
	return nil
}

// TestPackedStampsRoundTrip drives each stamp-keeping policy with real
// traffic and checks every stamp survives the packed encoding — in
// particular the two kinds a "valid lines only" shortcut would lose: a valid
// way whose stamp touchLRU drove to 0 (no record, must read back 0) and an
// invalidated way whose stamp is still live (minStamp and victim read it).
func TestPackedStampsRoundTrip(t *testing.T) {
	const sets, ways = 16, 4
	mkPolicy := map[string]func() Policy{
		"LRU": func() Policy { return NewLRU(sets, ways) },
		"5P":  func() Policy { return NewFiveP(sets, ways, 2, 7) },
	}
	traffic := func(c *Cache, from, to int) {
		for i := from; i < to; i++ {
			l := mem.LineAddr(i * 7 % 160)
			if c.Lookup(l) == nil {
				c.Place(l, InsertInfo{Core: i % 2, IsPrefetch: i%3 == 0})
			}
			if i%11 == 0 {
				c.Invalidate(mem.LineAddr((i + 35) * 7 % 160))
			}
		}
	}
	for name, mk := range mkPolicy {
		mk := mk
		t.Run(name, func(t *testing.T) {
			c := New("t", sets*ways*mem.LineSize, ways, mk())
			traffic(c, 0, 400)
			ls := lruStateOf(t, c.policy)
			// The traffic refills the ways it invalidates; these stay invalid.
			for i := 0; i < len(c.lines); i += 5 {
				c.Invalidate(c.lines[i].Addr())
			}
			var zeroValid, liveInvalid int
			for i, ln := range c.lines {
				if ln.Valid() && ls.stamps[i] == 0 {
					zeroValid++
				}
				if !ln.Valid() && ls.stamps[i] != 0 {
					liveInvalid++
				}
			}
			if liveInvalid == 0 {
				t.Fatal("no invalidated way holds a live stamp: the case is not exercised")
			}
			// LRU never inserts at the LRU position, so only 5P can
			// hold a valid line with stamp 0.
			if name != "LRU" && zeroValid == 0 {
				t.Fatal("no valid way holds stamp 0: the case is not exercised")
			}
			want := append([]uint64(nil), ls.stamps...)

			st := c.SaveState()
			var decoded State
			gobRoundTrip(t, st, &decoded)
			fresh := New("t", sets*ways*mem.LineSize, ways, mk())
			if err := fresh.RestoreState(decoded, 2); err != nil {
				t.Fatal(err)
			}
			fs := lruStateOf(t, fresh.policy)
			if !reflect.DeepEqual(fs.stamps, want) || fs.clock != ls.clock {
				t.Fatal("restored stamps differ from the original's")
			}
			if !reflect.DeepEqual(fresh.SaveState(), st) {
				t.Fatal("restored state does not re-encode to the saved state")
			}
			traffic(c, 400, 700)
			traffic(fresh, 400, 700)
			if !reflect.DeepEqual(fresh.SaveState(), c.SaveState()) {
				t.Fatal("restored cache diverged from original under identical traffic")
			}
			// RestoreState writes only the records, into a freshly built
			// cache. Built on the used cache's released stamps, one reads
			// back exactly the saved stamps: the free list's clear is the
			// one clear a restored array gets.
			used := &ls.stamps[0]
			c.Close()
			reused := New("t", sets*ways*mem.LineSize, ways, mk())
			rs := lruStateOf(t, reused.policy)
			if &rs.stamps[0] != used {
				t.Fatal("the next cache of the same geometry did not take the used cache's stamps")
			}
			if err := reused.RestoreState(decoded, 2); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(rs.stamps, want) {
				t.Fatal("restore into a cache built on released stamps left stale stamps behind")
			}
		})
	}
}

// TestPackedStampsRejected is the rejection matrix of the packed stamp
// records, the counterpart of TestPackedLinesRejected: every way the bytes
// can disagree with the format or with the restoring policy is an error,
// never a panic or a silently wrong stamp. The policy holds 8 stamps.
func TestPackedStampsRejected(t *testing.T) {
	// rec packs one record; stamp 300 takes two varint bytes.
	rec := func(delta, stamp uint64) []byte {
		return binary.AppendUvarint(binary.AppendUvarint(nil, delta), stamp)
	}
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	overlong := cat(bytes.Repeat([]byte{0x80}, 10), []byte{0x02})
	good := cat(rec(1, 300), rec(2, 5), rec(5, 1))
	cases := []struct {
		name      string
		numStamps int
		stamps    []byte
		ok        bool
	}{
		{"well formed, last stamp index 7", 8, good, true},
		{"no stamps", 8, nil, true},
		{"NumStamps below geometry", 7, good, false},
		{"NumStamps above geometry", 9, good, false},
		{"first index delta 0", 8, rec(0, 300), false},
		{"later index delta 0", 8, cat(rec(1, 300), rec(0, 5)), false},
		{"first index past the last way", 8, rec(9, 300), false},
		{"later index past the last way", 8, cat(good, rec(1, 9)), false},
		{"index delta wraps int", 8, cat(rec(1, 300), rec(1<<63, 5)), false},
		{"zero stamp", 8, cat(rec(1, 300), rec(2, 0)), false},
		{"truncated index delta", 8, cat(rec(1, 300), []byte{0x80}), false},
		{"missing stamp", 8, rec(1, 300)[:1], false},
		{"truncated stamp", 8, rec(1, 300)[:2], false},
		{"overlong index delta", 8, cat(overlong, []byte{0x05}), false},
		{"overlong stamp", 8, cat([]byte{0x01}, overlong), false},
		{"stamp 2 in one byte", 8, []byte{0x03, 0x02}, true},
		{"stamp 2 in two bytes", 8, []byte{0x03, 0x82, 0x00}, false},
		{"trailing garbage", 8, cat(good, []byte{0x00}), false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c := New("t", 2*4*mem.LineSize, 4, NewLRU(2, 4))
			st := c.SaveState()
			st.Policy.NumStamps, st.Policy.Stamps = tc.numStamps, tc.stamps
			err := c.RestoreState(st, 2)
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("accepted")
			}
			if tc.ok && !bytes.Equal(c.SaveState().Policy.Stamps, tc.stamps) {
				t.Fatal("accepted bytes do not re-encode to themselves")
			}
		})
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
		{"largest physical line address", 8, rec(1, 1<<34-1, 3, 1), true},
		{"line address past 34 bits", 8, rec(1, 1<<34, 0, 0), false},
		{"line address in the flag bits", 8, rec(1, 1<<63|300, 0, 0), false},
		{"truncated index delta", 8, cat(good[:len(good)-len(rec(5, 7, 1, 1))], []byte{0x80}), false},
		{"truncated address", 8, rec(1, 300, 0, 0)[:2], false},
		{"missing flags", 8, rec(1, 300, 0, 0)[:3], false},
		{"missing owner core", 8, rec(1, 300, 0, 0)[:4], false},
		{"truncated owner core", 8, append(rec(1, 300, 0, 0)[:4], 0x80), false},
		{"overlong varint", 8, cat(bytes.Repeat([]byte{0x80}, 10), []byte{0x02}), false},
		{"owner core 0 in one byte", 8, []byte{0x03, 0x05, 0x00, 0x00}, true},
		{"owner core 0 in two bytes", 8, []byte{0x03, 0x05, 0x00, 0x80, 0x00}, false},
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
