package engine

import (
	"bytes"
	"reflect"
	"testing"
)

// entryOpts stands for the options a record stores: the codec carries them
// as opaque bytes.
var entryOpts = []byte(`{"Workloads":[{"Name":"429.mcf"}]}`)

// filledResults returns Results whose every leaf holds a distinct value
// (leafFiller), with 1 to 4 per-core DRAM read counts and BO's stats both
// absent and present.
func filledResults(tb testing.TB) []Result {
	var out []Result
	for cores := 1; cores <= 4; cores++ {
		for _, withBO := range []bool{false, true} {
			var res Result
			f := leafFiller{t: tb, open: map[reflect.Type]bool{}}
			f.fill(reflect.ValueOf(&res).Elem())
			reads := make([]uint64, cores)
			for i := range reads {
				reads[i] = res.DRAM.PerCoreReads[0] + uint64(i)<<40
			}
			res.DRAM.PerCoreReads = reads
			if !withBO {
				res.BO = nil
			}
			out = append(out, res)
		}
	}
	return out
}

// TestEntryRoundTrip requires a record to give back exactly the options and
// the Result it was written from, with every field set to a distinct value:
// the nested uncore and DRAM stats, the per-core DRAM read counts, BO's
// stats absent and present, and a negative FinalBOOffset. A Result field
// the codec leaves out, or two it swaps, fails here.
func TestEntryRoundTrip(t *testing.T) {
	for _, want := range filledResults(t) {
		b := AppendEntry(nil, entryOpts, want)
		opts, got, err := DecodeEntry(b)
		if err != nil {
			t.Fatalf("%d cores, BO %v: %v", len(want.DRAM.PerCoreReads), want.BO != nil, err)
		}
		if !bytes.Equal(opts, entryOpts) {
			t.Errorf("options %s, want %s", opts, entryOpts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip gave\n%+v\nwant\n%+v", got, want)
		}
	}
}

// FuzzCacheEntry feeds DecodeEntry arbitrary bytes. It must never panic,
// and it may accept b only when b is exactly the record its decoded
// options and result encode to: no damaged, padded, truncated or
// non-minimal spelling of a record is served.
func FuzzCacheEntry(f *testing.F) {
	for _, res := range filledResults(f) {
		if n := len(res.DRAM.PerCoreReads); n != 1 && n != 4 {
			continue
		}
		b := AppendEntry(nil, entryOpts, res)
		f.Add(b)
		f.Add(b[:len(b)-1])
	}
	f.Add(AppendEntry(nil, nil, Result{}))
	f.Add([]byte(entryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		opts, res, err := DecodeEntry(b)
		if err != nil {
			return
		}
		if again := AppendEntry(nil, opts, res); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which encodes back as %x", b, again)
		}
	})
}
