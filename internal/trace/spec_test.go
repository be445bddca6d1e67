package trace

import (
	"strings"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	cases := []string{
		"429.mcf",
		"459.GemsFDTD",
		"stream",
		"stream:stride=128",
		"gups:footprint=64mb,storepct=25",
		"mix:gens=stream+pchase,weights=2+1",
		"file:path=/tmp/x.trace",
		"429.mcf:footprint=128mb,memper1000=300",
	}
	for _, c := range cases {
		sp, err := ParseSpec(c)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c, err)
			continue
		}
		if got := sp.String(); got != c {
			t.Errorf("ParseSpec(%q).String() = %q", c, got)
		}
		again, err := ParseSpec(sp.String())
		if err != nil || !again.Equal(sp) {
			t.Errorf("re-parse of %q not identical (err %v)", sp, err)
		}
	}
}

func TestParseSpecNormalizesSyntax(t *testing.T) {
	sp, err := ParseSpec("  stream : STRIDE=128 , storepct=5 ")
	if err != nil {
		t.Fatal(err)
	}
	if sp.String() != "stream:storepct=5,stride=128" {
		t.Errorf("canonical form = %q", sp)
	}
	// Names stay case-sensitive: the SPEC stand-ins keep their published
	// spellings, and a lowercased one is simply a different (unknown) name.
	sp = MustSpec("459.GemsFDTD")
	if sp.Name != "459.GemsFDTD" {
		t.Errorf("name case not preserved: %q", sp.Name)
	}
}

func TestParseSpecRejectsBadInput(t *testing.T) {
	for _, c := range []string{
		"",
		":d=1",
		"stream:",
		"stream:stride",
		"stream:stride=",
		"stream:=4",
		"stream:stride=1,stride=2",
		"str eam",
		"stream:st ride=4",
		"stream:stride=a;b",
		"stream:stride=a:b",
		"a,b",
	} {
		if sp, err := ParseSpec(c); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %q", c, sp)
		}
	}
}

func TestParseSpecList(t *testing.T) {
	specs, err := ParseSpecList("gups:footprint=64mb;stream:stride=128")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].String() != "gups:footprint=64mb" || specs[1].String() != "stream:stride=128" {
		t.Errorf("parsed %v", specs)
	}
	if _, err := ParseSpecList(";;"); err == nil {
		t.Error("empty list accepted")
	}
	if _, err := ParseSpecList("stream;str eam"); err == nil {
		t.Error("bad member accepted")
	}
	// Position is per-core: an interior empty entry must error, not
	// silently shift later specs onto earlier cores. A trailing ';' is
	// harmless and tolerated.
	if _, err := ParseSpecList("gups;;stream"); err == nil {
		t.Error("interior empty entry accepted")
	}
	if specs, err := ParseSpecList("gups;stream;"); err != nil || len(specs) != 2 {
		t.Errorf("trailing separator: %v, %v", specs, err)
	}
}

func TestSpecWithWithout(t *testing.T) {
	base := MustSpec("stream")
	with := base.With("stride", "128")
	if base.Params != nil {
		t.Error("With modified the receiver")
	}
	if with.String() != "stream:stride=128" {
		t.Errorf("With = %q", with)
	}
	if got := with.Without("stride"); got.String() != "stream" {
		t.Errorf("Without = %q", got)
	}
}

// FuzzParseWorkloadSpec is the workload-axis twin of prefetch's
// FuzzParseSpec: ParseSpec must never panic, and any accepted input must
// round-trip through String. `go test` replays this seed corpus through the
// binding; CI spends its fuzz budget on spec.FuzzParse, which drives both
// grammars.
func FuzzParseWorkloadSpec(f *testing.F) {
	for _, seed := range []string{
		"429.mcf", "459.GemsFDTD", "stream:stride=128",
		"gups:footprint=64mb,storepct=25", "mix:gens=stream+pchase,weights=2+1",
		"file:path=/tmp/x.trace", "file:sha=ab12", "a:b=c", ";", "x:y=z;q",
		"429.mcf:footprint=128mb", strings.Repeat("a", 300),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := ParseSpec(s)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", sp.String(), s, err)
		}
		if !again.Equal(sp) {
			t.Fatalf("round trip changed spec: %q -> %q -> %q", s, sp, again)
		}
		// Normalize must never panic either, whatever the name resolves to.
		if n, err := Normalize(sp); err == nil {
			if _, err := ParseSpec(n.String()); err != nil {
				t.Fatalf("normalized form %q does not re-parse: %v", n, err)
			}
		}
	})
}
