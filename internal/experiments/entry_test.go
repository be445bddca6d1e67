package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bopsim/internal/engine"
)

// filledResult returns a Result whose every field holds a value no other
// field holds: counters count up from 1, floats carry a fraction, ints are
// negative, DRAM.PerCoreReads has cores elements and BO is set only when
// withBO is. A field of a kind it cannot fill fails the test, so a Result
// that grows one is filled here before the codec can be checked against it.
func filledResult(t testing.TB, cores int, withBO bool) engine.Result {
	t.Helper()
	var res engine.Result
	next := uint64(0)
	var fill func(v reflect.Value, path string)
	fill = func(v reflect.Value, path string) {
		next++
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Uint64:
			v.SetUint(next)
		case reflect.Int:
			v.SetInt(-int64(next))
		case reflect.Float64:
			v.SetFloat(float64(next) + 0.25)
		case reflect.String:
			v.SetString(fmt.Sprintf("workload-%d", next))
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), cores, cores))
			for i := 0; i < cores; i++ {
				fill(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		case reflect.Pointer:
			if withBO {
				v.Set(reflect.New(v.Type().Elem()))
				fill(v.Elem(), path)
			}
		default:
			t.Fatalf("Result%s is a %s, which filledResult cannot fill", path, v.Kind())
		}
	}
	fill(reflect.ValueOf(&res).Elem(), "")
	return res
}

// TestEntryRoundTrip requires a record to give back exactly the Result it
// was written from, with every field set to a distinct value: the nested
// uncore and DRAM stats, 1 to 4 per-core DRAM read counts, BO's stats both
// absent and present, and a negative FinalBOOffset. A Result field the
// codec leaves out, or two it swaps, fails here.
func TestEntryRoundTrip(t *testing.T) {
	opts := mustMarshal(engine.DefaultOptions("429.mcf").Normalized())
	for cores := 1; cores <= 4; cores++ {
		for _, withBO := range []bool{false, true} {
			want := filledResult(t, cores, withBO)
			b := appendEntry(nil, opts, want)
			gotOpts, got, ok := decodeEntry(b)
			if !ok {
				t.Fatalf("cores=%d bo=%v: record not decoded", cores, withBO)
			}
			if !bytes.Equal(gotOpts, opts) {
				t.Errorf("cores=%d bo=%v: options %s, want %s", cores, withBO, gotOpts, opts)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("cores=%d bo=%v: round trip gave\n%+v\nwant\n%+v", cores, withBO, got, want)
			}
		}
	}
}

// FuzzCacheEntry feeds decodeEntry arbitrary bytes. It must never panic,
// and it may accept b only when b is exactly the record its decoded
// options and result encode to: no damaged, padded, truncated or
// non-minimal spelling of a record is served.
func FuzzCacheEntry(f *testing.F) {
	opts := mustMarshal(engine.DefaultOptions("429.mcf").Normalized())
	for _, cores := range []int{1, 4} {
		for _, withBO := range []bool{false, true} {
			b := appendEntry(nil, opts, filledResult(f, cores, withBO))
			f.Add(b)
			f.Add(b[:len(b)-1])
		}
	}
	f.Add(appendEntry(nil, nil, engine.Result{}))
	f.Add([]byte(entryMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		opts, res, ok := decodeEntry(b)
		if !ok {
			return
		}
		if again := appendEntry(nil, opts, res); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x, which encodes back as %x", b, again)
		}
	})
}
