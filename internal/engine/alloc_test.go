package engine_test

import (
	"runtime"
	"testing"

	"bopsim/internal/engine"
)

// allocsOf measures f: objects per call by testing.AllocsPerRun, and the
// bytes one more call adds to runtime.MemStats.TotalAlloc.
func allocsOf(f func()) (objects float64, bytes uint64) {
	objects = testing.AllocsPerRun(5, f)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return objects, after.TotalAlloc - before.TotalAlloc
}

// barrier returns the warmed 429.mcf options on the given number of cores,
// the machine that ran their warmup leg, standing at its barrier, and the
// snapshot it took there.
func barrier(t *testing.T, cores int) (engine.Options, *engine.Simulation, []byte) {
	t.Helper()
	o := warmed("429.mcf")
	o.Cores = cores
	leg, snap := warmupLeg(t, o)
	t.Cleanup(leg.Close)
	return o, leg, snap
}

// TestRestoreAllocs bounds what forking a variant costs beyond building one:
// Restore reads the record in place and rebuilds the machine New builds, so
// it may allocate only the decoded state's small slices, the warmup
// signature it checks and the TLB restore's sort order on top of New. Go
// 1.24 reads, 1 core: New 91 objects / 69 KB, Restore 124 / 86 KB; 2 cores:
// New 140 / 123 KB, Restore 185 / 147 KB. The gob payload's Restore, measured
// the same way, allocated 980 / 260 KB and 1,078 / 511 KB.
func TestRestoreAllocs(t *testing.T) {
	for _, row := range []struct {
		cores   int
		objects float64 // beyond New's
		kb      uint64  // beyond New's
	}{
		{1, 40, 24},
		{2, 56, 32},
	} {
		o, _, snap := barrier(t, row.cores)
		newObjects, newBytes := allocsOf(func() {
			s, err := engine.New(o)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		objects, bytes := allocsOf(func() {
			s, err := engine.Restore(snap, o)
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
		})
		t.Logf("%d cores: New %.0f objects / %d B, Restore %.0f / %d B", row.cores, newObjects, newBytes, objects, bytes)
		if objects > newObjects+row.objects || bytes > newBytes+row.kb<<10 {
			t.Errorf("%d cores: Restore allocates %.0f objects / %d B, New %.0f / %d B: want at most %.0f objects and %d KB more",
				row.cores, objects, bytes, newObjects, newBytes, row.objects, row.kb)
		}
	}
}

// TestCheckpointAllocs bounds what a snapshot costs: the record, packed into
// a buffer Checkpoint keeps and copied out as one allocation of its own
// length, and the small state the codec reads beside the caches (the TLBs'
// sorted copies, the DRAM registers, the warmup signature). Appended to a
// buffer that holds a record already, the record costs nothing. Go 1.24
// reads, 1 core: 33 objects / 76 KB for a 56 KB record; 2 cores: 46 / 159 KB
// for a 137 KB record. The gob payload's Checkpoint, measured the same way,
// allocated 190 / 449 KB and 279 / 1,096 KB.
func TestCheckpointAllocs(t *testing.T) {
	for _, row := range []struct {
		cores   int
		objects float64
		kb      uint64 // beyond the record's length
	}{
		{1, 40, 24},
		{2, 56, 32},
	} {
		_, leg, snap := barrier(t, row.cores)
		objects, bytes := allocsOf(func() {
			if _, err := leg.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d cores: Checkpoint %.0f objects / %d B for a %d B record", row.cores, objects, bytes, len(snap))
		if objects > row.objects || bytes > uint64(len(snap))+row.kb<<10 {
			t.Errorf("%d cores: Checkpoint allocates %.0f objects / %d B for a %d B record: want at most %.0f objects and %d KB beyond the record",
				row.cores, objects, bytes, len(snap), row.objects, row.kb)
		}
		buf := make([]byte, 0, len(snap))
		objects, bytes = allocsOf(func() {
			var err error
			if buf, err = leg.AppendCheckpoint(buf[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if objects > row.objects || bytes > row.kb<<10 {
			t.Errorf("%d cores: AppendCheckpoint into a record-sized buffer allocates %.0f objects / %d B: want at most %.0f objects and %d KB",
				row.cores, objects, bytes, row.objects, row.kb)
		}
	}
}
