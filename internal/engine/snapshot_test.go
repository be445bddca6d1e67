package engine

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bopsim/internal/cpu"
)

// leafFiller sets every exported leaf reachable from a value to a value no
// other leaf of its kind holds, and every slice to two elements, so a field
// the codec drops or swaps with another cannot come back equal.
type leafFiller struct {
	t    testing.TB
	n    uint64
	open map[reflect.Type]bool // slice types being filled: a type nested in itself gets one level
}

func (f *leafFiller) fill(v reflect.Value) {
	f.n++
	n := f.n * 0x1_0000_0101 // most leaves take several varint bytes
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				f.fill(v.Field(i))
			}
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		if f.open[v.Type()] {
			return
		}
		f.open[v.Type()] = true
		s := reflect.MakeSlice(v.Type(), 2, 2)
		f.fill(s.Index(0))
		f.fill(s.Index(1))
		v.Set(s)
		f.open[v.Type()] = false
	case reflect.String:
		v.SetString(fmt.Sprint("leaf", f.n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8:
		v.SetUint(f.n & 0xff)
	case reflect.Uint32:
		v.SetUint(n & 0xffff_ffff)
	case reflect.Uint64:
		v.SetUint(n)
	case reflect.Int, reflect.Int64:
		if f.n%2 == 1 {
			v.SetInt(-int64(n))
		} else {
			v.SetInt(int64(n))
		}
	case reflect.Float64:
		v.SetFloat(float64(n) + 0.25)
	default:
		f.t.Fatalf("a record leaf of kind %s has no filler, and likely no codec", v.Kind())
	}
}

// TestSnapshotCodecComplete fills every leaf of the snapshot tree — the
// cores, the generator cursors with one level of mix sub-cursors, every
// cache, TLB, DRAM and counter field — with a distinct value, and requires
// the record to decode to an equal tree and re-encode to the same bytes. A
// field added to any State type without a line in the codec fails here.
func TestSnapshotCodecComplete(t *testing.T) {
	var snap snapshot
	f := leafFiller{t: t, open: map[reflect.Type]bool{}}
	f.fill(reflect.ValueOf(&snap).Elem())
	b := appendSnapshot(nil, &snap)
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatalf("decoded tree differs from the encoded one\nencoded %+v\ndecoded %+v", snap, got)
	}
	if again := appendSnapshot(nil, &got); !bytes.Equal(again, b) {
		t.Fatal("encode -> decode -> encode is not byte-stable")
	}
	// Every one of those prefixes is a truncated record.
	for n := 0; n < len(b); n += 1 + n/16 {
		if _, err := decodeSnapshot(b[:n]); err == nil {
			t.Fatalf("the first %d of %d bytes decoded", n, len(b))
		}
	}
}

// TestCheckpointWritesSaveState checks the two ways the codec reads a cache
// agree: Checkpoint packs views of the live caches straight into its
// record, and must write exactly the record of the state tree SaveState
// copies out.
func TestCheckpointWritesSaveState(t *testing.T) {
	for _, l3 := range []string{"5P", "LRU", "DRRIP"} {
		o := DefaultOptions("429.mcf")
		o.Cores, o.L3Policy, o.Instructions, o.Warmup = 2, l3, 10_000, 10_000
		s, err := New(o)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RunWarmup(context.Background()); err != nil {
			t.Fatal(err)
		}
		live, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if len(live) != cap(live) {
			t.Errorf("%s: Checkpoint returned a %d-byte record in %d bytes", l3, len(live), cap(live))
		}
		view, err := s.barrierState()
		if err != nil {
			t.Fatal(err)
		}
		snap := view
		if snap.Uncore, err = s.hier.SaveState(); err != nil {
			t.Fatal(err)
		}
		if copied := appendSnapshot(nil, &snap); !bytes.Equal(copied, live) {
			t.Errorf("%s: the record of SaveState's tree differs from Checkpoint's", l3)
		}
		s.Close()
	}
}

// TestDecodeRefusesAnotherSpelling holds decodeSnapshot to accepting only
// what appendSnapshot writes: the same fields spelled with an overlong
// varint, a flag byte other than 0 or 1, or a byte after the last field are
// refused, and so is a count larger than the bytes left.
func TestDecodeRefusesAnotherSpelling(t *testing.T) {
	snap := snapshot{Sig: "sig", Cycles: 5, Cores: []cpu.State{{Retired: 3}}}
	good := appendSnapshot(nil, &snap)
	if _, err := decodeSnapshot(good); err != nil {
		t.Fatal(err)
	}
	header := len(snapshotMagic) + 4
	cycles := header + 1 + len(snap.Sig) // the one-byte varint 5
	cores := cycles + 1
	pending := cores + 2 // after the core count and the retired count
	if good[cycles] != 5 || good[cores] != 1 || good[pending] != 0 {
		t.Fatal("the record's layout moved: the offsets of this test are stale")
	}
	splice := func(at int, old int, with ...byte) []byte {
		return append(append(append([]byte(nil), good[:at]...), with...), good[at+old:]...)
	}
	for _, c := range []struct {
		name, want string
		b          []byte
	}{
		{"overlong barrier cycle", "overlong barrier cycle", splice(cycles, 1, 0x85, 0x00)},
		{"pending flag 2", "pending flag", splice(pending, 1, 2)},
		{"trailing byte", "after the last field", append(append([]byte(nil), good...), 0)},
		{"core count past the bytes left", "cores in", splice(cores, 1, 0x80, 0x80, 0x40)},
	} {
		if _, err := decodeSnapshot(c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error naming %q", c.name, err, c.want)
		}
	}
	// A version other than this binary's is refused by its field, whatever
	// follows it.
	skew := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(skew[len(snapshotMagic):], ModelVersion-1)
	if _, err := decodeSnapshot(skew); err == nil || !strings.Contains(err.Error(), "snapshot version") {
		t.Errorf("version skew: %v", err)
	}
}
