package trace

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bopsim/internal/spec"
)

func TestRegistryCoversBenchmarksAndMicroPatterns(t *testing.T) {
	names := make(map[string]bool)
	for _, n := range Names() {
		names[n] = true
	}
	for _, b := range Benchmarks() {
		if !names[b] {
			t.Errorf("benchmark %s not registered", b)
		}
	}
	for _, n := range []string{"microthrash", "stream", "pchase", "gups", "mix", "file"} {
		if !names[n] {
			t.Errorf("generator %s not registered", n)
		}
	}
}

func TestNormalizeDropsDefaults(t *testing.T) {
	n, err := Normalize(MustSpec("stream:stride=64,storepct=0,footprint=8mb"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "stream" {
		t.Errorf("normalized = %q, want bare name", n)
	}
	n, err = Normalize(MustSpec("429.mcf:memper1000=220"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "429.mcf" {
		t.Errorf("normalized = %q, want bare name", n)
	}
	n, err = Normalize(MustSpec("stream:stride=128"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "stream:stride=128" {
		t.Errorf("normalized = %q, non-default dropped", n)
	}
	// Size spellings of a default compare numerically, not as strings:
	// "64MB", "67108864" and the canonical "64mb" are one value and one
	// cache key.
	for _, spelling := range []string{"gups:footprint=64MB", "gups:footprint=67108864"} {
		n, err = Normalize(MustSpec(spelling))
		if err != nil {
			t.Fatal(err)
		}
		if n.String() != "gups" {
			t.Errorf("Normalize(%q) = %q, want bare name", spelling, n)
		}
	}
	// Non-default sizes canonicalize too: every spelling of one footprint
	// is one canonical form, one cache key, one warmup signature.
	for _, spelling := range []string{"gups:footprint=134217728", "gups:footprint=128MB"} {
		n, err = Normalize(MustSpec(spelling))
		if err != nil {
			t.Fatal(err)
		}
		if n.String() != "gups:footprint=128mb" {
			t.Errorf("Normalize(%q) = %q, want gups:footprint=128mb", spelling, n)
		}
	}
	// Integer-typed values — scalars and '+'-lists — canonicalize too: a
	// zero-padded spelling of a default (or of any value) is not a
	// distinct cache key.
	for _, c := range [][2]string{
		{"stream:stride=064", "stream"},
		{"gups:seed=00", "gups"},
		{"stream:stride=0128", "stream:stride=128"},
		{"400.perlbench:weights=03+1", "400.perlbench"},
		{"400.perlbench:weights=4+01", "400.perlbench:weights=4+1"},
		{"mix:gens=stream+gups,weights=01+1", "mix"},
	} {
		n, err = Normalize(MustSpec(c[0]))
		if err != nil {
			t.Fatal(err)
		}
		if n.String() != c[1] {
			t.Errorf("Normalize(%q) = %q, want %q", c[0], n, c[1])
		}
	}
	// Non-size keys keep their raw spelling: a seed must never be
	// re-rendered as a byte size.
	n, err = Normalize(MustSpec("gups:seed=4096"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "gups:seed=4096" {
		t.Errorf("Normalize(seed=4096) = %q, seed value was size-rendered", n)
	}
	// An all-ones weights list is the implicit default for any gens value
	// and must share the bare spelling's canonical form (and cache key);
	// non-uniform weights stay.
	n, err = Normalize(MustSpec("mix:weights=1+1"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "mix" {
		t.Errorf("Normalize(mix:weights=1+1) = %q, want mix", n)
	}
	n, err = Normalize(MustSpec("mix:gens=stream+pchase+gups,weights=1+1+1"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "mix:gens=stream+pchase+gups" {
		t.Errorf("Normalize(all-ones weights) = %q, weights kept", n)
	}
	n, err = Normalize(MustSpec("mix:weights=2+1"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "mix:weights=2+1" {
		t.Errorf("Normalize(mix:weights=2+1) = %q, non-default weights dropped", n)
	}
}

func TestRegistryRejectsUnknowns(t *testing.T) {
	if _, err := NewGenerator(Spec{Name: "no-such-gen"}, 1); err == nil || !strings.Contains(err.Error(), "unknown workload") {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := NewGenerator(MustSpec("stream:bogus=1"), 1); err == nil || !strings.Contains(err.Error(), "no parameter") {
		t.Errorf("unknown parameter error = %v", err)
	}
	if _, err := NewGenerator(MustSpec("stream:stride=xyz"), 1); err == nil {
		t.Error("bad value accepted")
	}
	if _, err := NewGenerator(MustSpec("stream:memper1000=2000"), 1); err == nil {
		t.Error("out-of-range memper1000 accepted")
	}
	if _, err := NewGenerator(MustSpec("429.mcf:weights=1+2"), 1); err == nil {
		t.Error("weights/component count mismatch accepted")
	}
	// Degenerate mixer parameters are rejected, not silently measured.
	if _, err := NewGenerator(MustSpec("stream:stride=-64"), 1); err == nil {
		t.Error("negative stride accepted (degenerates to one hot line)")
	}
	if _, err := NewGenerator(MustSpec("stream:footprint=64"), 1); err == nil {
		t.Error("sub-64kb footprint accepted")
	}
	if _, err := NewGenerator(MustSpec("gups:footprint=1kb"), 1); err == nil {
		t.Error("sub-64kb gups footprint accepted")
	}
	// Below the footprint floor the striped patterns' geometry would
	// degenerate (posPerStr 0 once divided among stripes — historically a
	// divide-by-zero panic mid-simulation): the spec layer must reject it.
	if _, err := NewGenerator(MustSpec("459.GemsFDTD:footprint=4kb"), 1); err == nil {
		t.Error("footprint below the stripes-geometry floor accepted")
	}
	// Normalize validates without constructing (Definition.Validate), and
	// must reject exactly what Build rejects.
	if _, err := Normalize(MustSpec("459.GemsFDTD:footprint=4kb")); err == nil {
		t.Error("Normalize accepted a spec Build rejects")
	}
	if _, err := Normalize(MustSpec("mix:gens=stream+no-such-gen")); err == nil {
		t.Error("Normalize accepted a mix of an unregistered generator")
	}
	// A registered name that cannot build with default parameters ("file"
	// needs a path) is rejected at mix validation, not mid-build.
	if _, err := Normalize(MustSpec("mix:gens=file+stream")); err == nil {
		t.Error("Normalize accepted a mix of a parameterless-unbuildable generator")
	}
	// A stride at or past the footprint is the same single-hot-line
	// degeneration as stride 0 and is rejected the same way.
	if _, err := NewGenerator(MustSpec("stream:stride=1000000000"), 1); err == nil {
		t.Error("stride past the footprint accepted")
	}
	if _, err := NewGenerator(MustSpec("gups:footprint=2gb"), 1); err == nil {
		t.Error("footprint above the 1gb region spacing accepted")
	}
	// A weights list that would overflow the mixer's accumulator (and
	// panic rng.Intn at simulation time) must die at spec validation.
	huge := "mix:gens=stream+gups,weights=9223372036854775807+9223372036854775807"
	if _, err := NewGenerator(MustSpec(huge), 1); err == nil {
		t.Error("weight-sum overflow accepted")
	}
	if _, err := NewGenerator(MustSpec("429.mcf:weights=2000000+1+1"), 1); err == nil {
		t.Error("oversized benchmark weight accepted")
	}
}

// TestFootprintScaleLargeValuesExact checks region scaling is exact for
// huge footprints: the 128-bit multiply must not wrap mod 2^64 into a
// silently wrong working set.
func TestFootprintScaleLargeValuesExact(t *testing.T) {
	// 416.gamess: one random component, base footprint 128kb. Scaled to
	// the 1gb maximum, accesses must reach beyond 512mb (scaling happened,
	// no wrap to a tiny region) and stay under 1gb (quotient exact).
	g := mustGen(t, "416.gamess:footprint=1gb", 1)
	var maxOff uint64
	for i := 0; i < 200000; i++ {
		inst := g.Next()
		if inst.Op == OpALU {
			continue
		}
		off := uint64(inst.VA - regionBase(0))
		if off >= 1<<30 {
			t.Fatalf("access at offset %d outside the 1gb scaled footprint", off)
		}
		if off > maxOff {
			maxOff = off
		}
	}
	if maxOff < 512<<20 {
		t.Errorf("max offset %d never exceeded 512mb; scaling collapsed", maxOff)
	}
}

func TestParamsChangeStreams(t *testing.T) {
	base := firstInsts(t, "stream", 1)
	for _, variant := range []string{
		"stream:stride=128",
		"stream:footprint=1mb",
		"stream:storepct=50",
		"stream:memper1000=500",
	} {
		if slices.Equal(firstInsts(t, variant, 1), base) {
			t.Errorf("%s produced the default stream", variant)
		}
	}
	// Seed plumbing is observable on a random generator (a pure stream
	// consumes no randomness, so its stream is seed-independent).
	if slices.Equal(firstInsts(t, "gups", 1), firstInsts(t, "gups", 2)) {
		t.Error("run seed does not reach the generator")
	}
	// seed=0 is the registered default: the run seed stays in charge.
	if !slices.Equal(firstInsts(t, "gups:seed=0", 7), firstInsts(t, "gups", 7)) {
		t.Error("seed=0 does not defer to the run seed")
	}
	// An explicit seed overrides the run-derived one.
	if !slices.Equal(firstInsts(t, "gups:seed=9", 1), firstInsts(t, "gups:seed=9", 2)) {
		t.Error("explicit seed did not pin the stream")
	}
}

func TestBenchmarkFootprintScales(t *testing.T) {
	// Scaling mcf's footprint down must confine its pointer-chase region:
	// every address lands inside regionBase(i) + scaled region.
	g := mustGen(t, "429.mcf:footprint=16mb", 1)
	for i := 0; i < 20000; i++ {
		inst := g.Next()
		if inst.Op == OpALU {
			continue
		}
		off := inst.VA - regionBase(int((inst.VA>>30)&0x3f))
		if off >= 16*mb {
			t.Fatalf("access at offset %d outside the 16mb scaled footprint", off)
		}
	}
	// Identity scaling is exact (engine's model.lock pins the default stream).
	if !slices.Equal(firstInsts(t, "429.mcf:footprint=384mb", 1), firstInsts(t, "429.mcf", 1)) {
		t.Error("default-valued footprint changed the stream")
	}
}

func TestMixDeterminismAndState(t *testing.T) {
	a := mustGen(t, "mix:gens=stream+pchase,weights=2+1", 3)
	b := mustGen(t, "mix:gens=stream+pchase,weights=2+1", 3)
	for i := 0; i < 5000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("mix is not deterministic in its seed")
		}
	}
	// Cursor round trip: save mid-stream, restore into a fresh instance,
	// and the continuations must agree.
	sg := a.(StatefulGenerator)
	st := sg.SaveGenState()
	if st.Kind != "mix" || len(st.Subs) != 2 {
		t.Fatalf("mix state = %+v", st)
	}
	fresh := mustGen(t, "mix:gens=stream+pchase,weights=2+1", 3).(StatefulGenerator)
	if err := fresh.RestoreGenState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if a.Next() != fresh.Next() {
			t.Fatal("restored mix diverged")
		}
	}
	// Mismatched shapes are rejected, not half-applied.
	other := mustGen(t, "mix:gens=stream+pchase+gups", 3).(StatefulGenerator)
	if err := other.RestoreGenState(st); err == nil {
		t.Error("mix state restored into a differently shaped mix")
	}
	if err := fresh.RestoreGenState(GenState{Kind: "workload"}); err == nil {
		t.Error("workload state restored into a mix")
	}
	if _, err := NewGenerator(MustSpec("mix:gens=mix+stream"), 1); err == nil {
		t.Error("nested mix accepted")
	}
}

func TestMixRegionOffsets(t *testing.T) {
	// region= is a pure VA translation: against an unshifted twin, every
	// memory access moves by exactly region*regionSpan and nothing else —
	// not ALU instructions, not PCs, not sub-generator scheduling.
	base := mustGen(t, "mix:gens=stream+pchase", 3)
	shifted := mustGen(t, "mix:gens=stream+pchase,region=2+2", 3)
	for i := 0; i < 5000; i++ {
		a, b := base.Next(), shifted.Next()
		if a.Op != OpALU {
			if b.VA != a.VA+2*regionSpan {
				t.Fatalf("inst %d: VA %#x, want %#x", i, b.VA, a.VA+2*regionSpan)
			}
			a.VA = b.VA
		}
		if a != b {
			t.Fatalf("inst %d: region shift changed more than the VA: %+v vs %+v", i, a, b)
		}
	}

	// region=0+1 separates the two programs into disjoint 1TB windows.
	mixed := mustGen(t, "mix:gens=stream+gups,region=0+1", 3)
	seen := make(map[int]bool)
	for i := 0; i < 5000; i++ {
		inst := mixed.Next()
		if inst.Op == OpALU {
			continue
		}
		w := int(inst.VA / regionSpan)
		if w > 1 {
			t.Fatalf("access %#x outside regions 0..1", inst.VA)
		}
		seen[w] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("regions touched = %v, want both 0 and 1", seen)
	}

	// The all-zero region list is the default and canonicalizes away, so
	// pre-region cache keys are untouched; a real offset survives.
	n, err := Normalize(MustSpec("mix:gens=stream+gups,region=0+0"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "mix" {
		t.Errorf("all-zero region not canonicalized away: %q", n)
	}
	n, err = Normalize(MustSpec("mix:gens=stream+gups,region=0+1"))
	if err != nil {
		t.Fatal(err)
	}
	if n.String() != "mix:region=0+1" {
		t.Errorf("non-default region dropped: %q", n)
	}
	for _, bad := range []string{
		"mix:gens=stream+gups,region=1",      // length mismatch
		"mix:gens=stream+gups,region=0+256",  // beyond maxRegion
		"mix:gens=stream+gups,region=0+-1",   // negative
		"mix:gens=stream+gups,region=0+huge", // not an integer
	} {
		if _, err := Normalize(MustSpec(bad)); err == nil {
			t.Errorf("Normalize(%q) accepted", bad)
		}
	}

	// Checkpoint round trip: the offset is spec-derived config, so state
	// saved from a shifted mix restores into a shifted twin and continues
	// identically (shifted VAs included).
	sg := mustGen(t, "mix:gens=stream+pchase,region=1+3", 7).(StatefulGenerator)
	for i := 0; i < 2500; i++ {
		sg.Next()
	}
	st := sg.SaveGenState()
	fresh := mustGen(t, "mix:gens=stream+pchase,region=1+3", 7).(StatefulGenerator)
	if err := fresh.RestoreGenState(st); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2500; i++ {
		if sg.Next() != fresh.Next() {
			t.Fatal("restored region mix diverged")
		}
	}
}

func TestFileSpecHashForms(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.trace")
	if err := WriteTraceFile(path, MustWorkload("456.hmmer", 1), 500); err != nil {
		t.Fatal(err)
	}
	sha := ContentSHA(path)
	hs := HashSpec(FileSpec(path))
	if got, _ := hs.Get("sha"); got != sha {
		t.Errorf("HashSpec sha = %q, want %q", got, sha)
	}
	if _, hasPath := hs.Get("path"); hasPath {
		t.Error("HashSpec kept the path")
	}
	// A byte-identical copy under another name hashes identically.
	b, _ := os.ReadFile(path)
	copyPath := filepath.Join(dir, "renamed.bin")
	if err := os.WriteFile(copyPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if !HashSpec(FileSpec(copyPath)).Equal(hs) {
		t.Error("identical content at a different path hashed differently")
	}
	// Non-file specs pass through untouched; unreadable traces keep the
	// path form (and WireSpec refuses them).
	if !HashSpec(MustSpec("stream")).Equal(MustSpec("stream")) {
		t.Error("HashSpec touched a non-file spec")
	}
	missing := FileSpec(filepath.Join(dir, "nope.trace"))
	if !HashSpec(missing).Equal(missing) {
		t.Error("HashSpec invented a hash for an unreadable trace")
	}
	if _, err := WireSpec(missing); err == nil {
		t.Error("WireSpec shipped an unreadable trace")
	}
	// Building from a sha-only spec fails with a resolution error (the
	// worker-side index rewrites it to a path first), never a panic.
	if _, err := NewGenerator(MustSpec("file:sha=ab12"), 1); err == nil {
		t.Error("sha-only file spec built without local resolution")
	}
	// Normalization of both forms is valid and cheap (no file IO).
	if _, err := Normalize(MustSpec("file:sha=ab12")); err != nil {
		t.Errorf("sha form does not normalize: %v", err)
	}
	if _, err := Normalize(FileSpec(path)); err != nil {
		t.Errorf("path form does not normalize: %v", err)
	}
	if _, err := Normalize(Spec{Name: "file"}); err == nil {
		t.Error("file spec with neither path nor sha normalized")
	}
	// path and sha together are rejected: a claimed sha beside a path
	// would be silently ignored, letting an edited trace run under a
	// stale pin.
	if _, err := Normalize(FileSpec(path).With("sha", sha)); err == nil {
		t.Error("file spec with both path and sha normalized")
	}
}

func TestParamDefaultsSchema(t *testing.T) {
	defs, ok := Generators.Defaults("gups")
	if !ok {
		t.Fatal("gups not registered")
	}
	for _, key := range []string{"seed", "memper1000", "storepct", "footprint"} {
		if _, ok := defs[key]; !ok {
			t.Errorf("gups schema missing %q", key)
		}
	}
	if _, ok := Generators.Defaults("no-such-gen"); ok {
		t.Error("schema reported for unregistered name")
	}
	// The returned map is a copy: mutating it must not poison the registry.
	defs["footprint"] = "tampered"
	again, _ := Generators.Defaults("gups")
	if again["footprint"] == "tampered" {
		t.Error("Defaults leaks registry state")
	}
}

func TestSizeParsing(t *testing.T) {
	for raw, want := range map[string]uint64{
		"64mb": 64 << 20, "512kb": 512 << 10, "1gb": 1 << 30, "4096": 4096, "2MB": 2 << 20,
	} {
		got, err := spec.ParseSize(raw)
		if err != nil || uint64(got) != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", raw, got, err, want)
		}
	}
	for _, raw := range []string{"", "mb", "12tb", "-1", "1.5mb"} {
		if _, err := spec.ParseSize(raw); err == nil {
			t.Errorf("ParseSize(%q) accepted", raw)
		}
	}
	for _, v := range []uint64{64 << 20, 512 << 10, 1 << 30, 4097} {
		s := spec.FormatSize(addrFromState(v))
		back, err := spec.ParseSize(s)
		if err != nil || uint64(back) != v {
			t.Errorf("FormatSize/ParseSize round trip %d -> %q -> %d (%v)", v, s, back, err)
		}
	}
}

// firstInsts returns the first 5,000 instructions of spec's stream at seed.
func firstInsts(t *testing.T, spec string, seed uint64) []Inst {
	t.Helper()
	g := mustGen(t, spec, seed)
	insts := make([]Inst, 5000)
	for i := range insts {
		insts[i] = g.Next()
	}
	return insts
}

func mustGen(t *testing.T, spec string, seed uint64) Generator {
	t.Helper()
	g, err := NewGenerator(MustSpec(spec), seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
