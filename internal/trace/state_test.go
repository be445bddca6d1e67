package trace

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"
)

// genRoundTrip advances gen, saves its cursor, byte-checks the encoding,
// restores into fresh and verifies both produce the same continuation.
func genRoundTrip(t *testing.T, gen, fresh StatefulGenerator, advance int) {
	t.Helper()
	for i := 0; i < advance; i++ {
		gen.Next()
	}
	st := gen.SaveGenState()

	var a bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded GenState
	if err := gob.NewDecoder(bytes.NewReader(a.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("generator state encode -> decode -> encode is not byte-stable")
	}

	if err := fresh.RestoreGenState(decoded); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.SaveGenState(), st) {
		t.Fatal("restored cursor differs from saved cursor")
	}
	for i := 0; i < 5000; i++ {
		want, got := gen.Next(), fresh.Next()
		if want != got {
			t.Fatalf("instruction %d after restore: got %+v, want %+v", i, got, want)
		}
	}
}

// TestWorkloadCursorRoundTrip covers every workload (every component type:
// stream, chunk, stripes, random) plus the thrasher.
func TestWorkloadCursorRoundTrip(t *testing.T) {
	names := append(Benchmarks(), "microthrash")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			genRoundTrip(t, MustWorkload(name, 3), MustWorkload(name, 3), 12_345)
		})
	}
}

// TestFileTraceCursorRoundTrip covers the recorded-trace generator,
// including a wrap of the recording.
func TestFileTraceCursorRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := WriteTraceFile(path, MustWorkload("456.hmmer", 1), 1000); err != nil {
		t.Fatal(err)
	}
	open := func() *FileTrace {
		ft, err := OpenTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	genRoundTrip(t, open(), open(), 1500) // past one wrap
}

// TestGenStateRejectsMismatch checks cursor states cannot restore into the
// wrong generator shape.
func TestGenStateRejectsMismatch(t *testing.T) {
	w := MustWorkload("433.milc", 1)
	ft := &FileTrace{name: "x", recs: make([]byte, 10*recordSize), count: 10}

	if err := w.RestoreGenState(ft.SaveGenState()); err == nil {
		t.Error("file cursor restored into a workload")
	}
	if err := ft.RestoreGenState(w.SaveGenState()); err == nil {
		t.Error("workload cursor restored into a file trace")
	}
	st := ft.SaveGenState()
	st.Idx = 99
	if err := ft.RestoreGenState(st); err == nil {
		t.Error("out-of-range file cursor accepted")
	}
	other := MustWorkload("400.perlbench", 1).SaveGenState()
	if err := w.RestoreGenState(other); err == nil {
		t.Error("cursor from a workload with different components accepted")
	}
}
