package prefetch

import (
	"strings"
	"testing"
)

func TestParseSpecCanonicalRoundTrip(t *testing.T) {
	cases := []struct {
		in        string
		canonical string
	}{
		{"nextline", "nextline"},
		{"bo", "bo"},
		{"offset:d=4", "offset:d=4"},
		{"bo:badscore=5,rr=64", "bo:badscore=5,rr=64"},
		{"bo:rr=64,badscore=5", "bo:badscore=5,rr=64"}, // key order canonicalized
		{"BO:BadScore=5", "bo:badscore=5"},             // case folded
		{"  bo : badscore = 5 ", "bo:badscore=5"},      // whitespace trimmed
		{"multi:offsets=1+2+8", "multi:offsets=1+2+8"},
		{"offset:d=-3", "offset:d=-3"},
	}
	for _, c := range cases {
		sp, err := ParseSpec(c.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", c.in, err)
			continue
		}
		if got := sp.String(); got != c.canonical {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", c.in, got, c.canonical)
		}
		// parse -> canonical string -> parse is the identity.
		sp2, err := ParseSpec(sp.String())
		if err != nil {
			t.Errorf("reparse of %q: %v", sp.String(), err)
			continue
		}
		if !sp.Equal(sp2) {
			t.Errorf("round trip changed spec: %q -> %q", sp.String(), sp2.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, in := range []string{
		"",                // empty name
		":d=4",            // missing name
		"bo:",             // empty parameter list
		"bo:d",            // not key=value
		"bo:=4",           // empty key
		"bo:d=",           // empty value
		"bo:d=4,d=5",      // duplicate key
		"off set:d=4",     // space in name
		"bo:k!=v",         // bad key character
		"bo:d=a,b",        // second parameter not key=value
		"bo:d=1:2",        // ':' in value would not re-parse
		"bo:d=1=2",        // '=' in value
		"name with space", // bad name
	} {
		if sp, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted as %q, want error", in, sp.String())
		}
	}
}

func TestSpecWithDoesNotMutate(t *testing.T) {
	base := MustSpec("bo:rr=64")
	v := base.With("badscore", "5")
	if base.String() != "bo:rr=64" {
		t.Errorf("With mutated its receiver: %q", base.String())
	}
	if v.String() != "bo:badscore=5,rr=64" {
		t.Errorf("With result = %q", v.String())
	}
}

func TestNormalizeDropsDefaults(t *testing.T) {
	// Only this package's builtin registrations are linked here; the
	// cross-package names (bo, sbp, stride, multi) are covered by the
	// external registry_ext_test, which links internal/prefetch/all.
	cases := []struct{ in, want string }{
		{"offset:d=1", "offset"},
		{"offset:d=4", "offset:d=4"},
		{"nextline", "nextline"},
	}
	for _, c := range cases {
		got, err := NormalizeL2(MustSpec(c.in))
		if err != nil {
			t.Errorf("NormalizeL2(%q): %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("NormalizeL2(%q) = %q, want %q", c.in, got.String(), c.want)
		}
	}
}

func TestNormalizeRejectsUnknown(t *testing.T) {
	if _, err := NormalizeL2(Spec{Name: "warp-drive"}); err == nil {
		t.Error("unknown name accepted")
	}
	if _, err := NormalizeL2(MustSpec("offset:warp=9")); err == nil {
		t.Error("unknown parameter accepted")
	}
	if _, err := NormalizeL2(MustSpec("offset:d=many")); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := NormalizeL2(MustSpec("offset:d=0")); err == nil {
		t.Error("semantically invalid value accepted")
	}
	// L1 and L2 namespaces are separate.
	if _, err := NormalizeL1(Spec{Name: "offset"}); err == nil {
		t.Error("L2-only name accepted by the L1 registry")
	}
}

// FuzzParseSpec checks that whatever ParseSpec accepts survives the
// canonical round trip: parse -> String -> parse yields an equal spec, and
// the canonical form is a fixed point of itself. `go test` replays this
// seed corpus through the binding; CI spends its fuzz budget on
// spec.FuzzParse, which drives both grammars.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"bo", "nextline", "offset:d=4", "bo:badscore=5,rr=64",
		"multi:offsets=1+2+8,period=128", "BO:BadScore=5", "  bo : rr = 64 ",
		"bo:", ":d=1", "a=b", "x:y=z,,", "offset:d=-3", "s t r",
		// Meta-prefetcher specs with quoted nested sub-specs: the stand-in
		// characters '.', '~' and ';' are ordinary value bytes to ParseSpec.
		"duel:a=bo,b=multi",
		"duel:a=bo.degree~2,b=multi.offsets~1+2+8;minscore~6,period=4096",
		"adapt:base=bo.badscore~3,window=8192",
		"adapt:base=multi,key=minscore,levels=48+24+12+6",
		"duel:a=.~;", "duel:a=bo.b~", "adapt:base=~~..;;",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return // rejected inputs are out of scope
		}
		s1 := sp.String()
		sp2, err := ParseSpec(s1)
		if err != nil {
			t.Fatalf("canonical form %q (from %q) does not re-parse: %v", s1, in, err)
		}
		if s2 := sp2.String(); s2 != s1 {
			t.Fatalf("canonical form not a fixed point: %q -> %q -> %q", in, s1, s2)
		}
		if !sp.Equal(sp2) {
			t.Fatalf("round trip inequality for %q", in)
		}
		if strings.ToLower(sp.Name) != sp.Name {
			t.Fatalf("parsed name %q not lowercased", sp.Name)
		}
	})
}
