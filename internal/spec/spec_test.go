package spec_test

// External test package: it drives the shared grammar through the two
// Grammar values the tree actually uses, so a change to either axis'
// alphabet or reserved set is exercised here too.

import (
	"errors"
	"strings"
	"testing"

	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
	"bopsim/internal/trace"
)

// TestParseBothGrammars is one table over both grammars: the canonical form
// each gives an input, "" where it must refuse it. Everything the grammars
// share reads the same in both columns; the rows where they differ are the
// whole difference between the axes.
func TestParseBothGrammars(t *testing.T) {
	cases := []struct{ in, prefetch, trace string }{
		{"bo", "bo", "bo"},
		{"offset:d=4", "offset:d=4", "offset:d=4"},
		{"bo:rr=64,badscore=5", "bo:badscore=5,rr=64", "bo:badscore=5,rr=64"}, // keys sorted
		{"  bo : BadScore = 5 ", "bo:badscore=5", "bo:badscore=5"},            // trimmed, keys folded
		{"multi:offsets=1+2+-8", "multi:offsets=1+2+-8", "multi:offsets=1+2+-8"},
		{"file:path=/tmp/x.trace", "file:path=/tmp/x.trace", "file:path=/tmp/x.trace"},
		// Names: prefetchers fold to lowercase [a-z0-9_-]; workloads keep
		// their case and may carry dots.
		{"BO:BadScore=5", "bo:badscore=5", "BO:badscore=5"},
		{"459.GemsFDTD", "", "459.GemsFDTD"},
		{"429.mcf:footprint=128mb", "", "429.mcf:footprint=128mb"},
		// Values: ';' is free for prefetchers (it quotes ',' in nested
		// sub-specs) and reserved for workloads (it separates cores).
		{"duel:a=bo.degree~2,b=multi.offsets~1+2;minscore~6", "duel:a=bo.degree~2,b=multi.offsets~1+2;minscore~6", ""},
		{"stream:stride=a;b", "stream:stride=a;b", ""},
		// Refused by both.
		{"", "", ""},
		{":d=4", "", ""},
		{"bo:", "", ""},
		{"bo:d", "", ""},
		{"bo:=4", "", ""},
		{"bo:d=", "", ""},
		{"bo:d=4,d=5", "", ""},
		{"bo:d=4,,", "", ""},
		{"off set:d=4", "", ""},
		{"bo:k!=v", "", ""},
		{"bo:st ride=4", "", ""},
		{"bo:d=1:2", "", ""},
		{"bo:d=1=2", "", ""},
		{"bo:d=a b", "", ""},
		{"a,b", "", ""},
	}
	for _, c := range cases {
		for _, g := range []struct {
			grammar spec.Grammar
			want    string
		}{{prefetch.Grammar, c.prefetch}, {trace.Grammar, c.trace}} {
			sp, err := g.grammar.Parse(c.in)
			switch {
			case g.want == "" && err == nil:
				t.Errorf("%s grammar accepted %q as %q", g.grammar.Pkg, c.in, sp)
			case g.want == "":
				if !strings.HasPrefix(err.Error(), g.grammar.Pkg+": ") {
					t.Errorf("%s grammar: error %q does not name its axis", g.grammar.Pkg, err)
				}
			case err != nil:
				t.Errorf("%s grammar refused %q: %v", g.grammar.Pkg, c.in, err)
			case sp.String() != g.want:
				t.Errorf("%s grammar: Parse(%q) = %q, want %q", g.grammar.Pkg, c.in, sp, g.want)
			}
		}
	}
}

// FuzzParse checks, for both grammars, that whatever Parse accepts survives
// the canonical round trip — parse -> String -> parse yields an equal spec
// and the canonical form is a fixed point — and that each grammar keeps its
// own promise: prefetcher names come back lower-cased, no accepted workload
// value contains ';'. Normalize must never panic either, whatever the name
// resolves to, and a normalized form must re-parse.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"bo", "nextline", "offset:d=4", "bo:badscore=5,rr=64", "BO:BadScore=5",
		"  bo : rr = 64 ", "bo:", ":d=1", "a=b", "x:y=z,,", "offset:d=-3", "s t r",
		"duel:a=bo.degree~2,b=multi.offsets~1+2+8;minscore~6,period=4096",
		"adapt:base=multi,key=minscore,levels=48+24+12+6", "duel:a=.~;", "adapt:base=~~..;;",
		"429.mcf", "459.GemsFDTD", "stream:stride=128", "gups:footprint=64mb,storepct=25",
		"mix:gens=stream+pchase,weights=2+1", "file:path=/tmp/x.trace", "file:sha=ab12",
		";", "x:y=z;q", strings.Repeat("a", 300),
	} {
		f.Add(seed)
	}
	normalizers := map[string]func(spec.Spec) (spec.Spec, error){
		"prefetch": prefetch.NormalizeL2,
		"trace":    trace.Normalize,
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, g := range []spec.Grammar{prefetch.Grammar, trace.Grammar} {
			sp, err := g.Parse(in)
			if err != nil {
				continue // rejected inputs are out of scope
			}
			s1 := sp.String()
			again, err := g.Parse(s1)
			if err != nil {
				t.Fatalf("%s: canonical form %q (from %q) does not re-parse: %v", g.Pkg, s1, in, err)
			}
			if s2 := again.String(); s2 != s1 || !again.Equal(sp) {
				t.Fatalf("%s: canonical form not a fixed point: %q -> %q -> %q", g.Pkg, in, s1, s2)
			}
			if g.FoldNames && strings.ToLower(sp.Name) != sp.Name {
				t.Fatalf("%s: parsed name %q not lowercased", g.Pkg, sp.Name)
			}
			for key, value := range sp.Params {
				if strings.ContainsAny(value, g.Reserved) {
					t.Fatalf("%s: accepted value %s=%q contains a reserved character", g.Pkg, key, value)
				}
			}
			if n, err := normalizers[g.Pkg](sp); err == nil {
				if _, err := g.Parse(n.String()); err != nil {
					t.Fatalf("%s: normalized form %q does not re-parse: %v", g.Pkg, n, err)
				}
			}
		}
	})
}

// TestRegistryOnAToyAxis pins what the shared Registry adds over the two
// hand copies it replaced, on an axis of its own so neither real registry's
// contents matter: Lookup folds by the grammar (a Spec built as a struct
// never went through Parse), and Normalize hands back the syntactically
// canonical spec next to every error — which is what lets
// engine.Options.Normalized use its result unconditionally.
func TestRegistryOnAToyAxis(t *testing.T) {
	type build = func(scale int, v spec.Values) (int, error)
	g := spec.Grammar{Pkg: "toy", FoldNames: true}
	r := spec.NewRegistry(g, "gadget", func(b build, v spec.Values) error { _, err := b(1, v); return err })
	r.Register("gain", spec.Definition[build]{
		Defaults: map[string]string{"k": "2", "size": "64kb"},
		IntKeys:  []string{"k"},
		SizeKeys: []string{"size"},
		Build: func(scale int, v spec.Values) (int, error) {
			var err error
			k := v.Int("k", 2, &err)
			if err == nil && k < 1 {
				err = errors.New("k must be >= 1")
			}
			return scale * k, err
		},
	})

	raw := spec.Spec{Name: "GAIN", Params: map[string]string{"K": "03", "Size": "65536"}}
	if got, err := r.Normalize(raw); err != nil || got.String() != "gain:k=3" {
		t.Errorf("Normalize(%v) = %q, %v; want gain:k=3", raw, got, err)
	}
	if raw.Name != "GAIN" || raw.Params["K"] != "03" {
		t.Errorf("Normalize mutated its argument: %v", raw)
	}
	def, sp, err := r.Lookup(raw)
	if err != nil || sp.String() != "gain:k=03,size=65536" {
		t.Fatalf("Lookup(%v) = %q, %v", raw, sp, err)
	}
	if n, _ := def.Build(10, spec.Values(sp.Params)); n != 30 {
		t.Errorf("built %d, want 30", n)
	}

	for _, c := range []struct {
		in        spec.Spec
		canonical string
		errHas    string
	}{
		{spec.Spec{Name: "Widget", Params: map[string]string{"X": "1"}}, "widget:x=1", `unknown gadget "widget" (registered: gain)`},
		{spec.Spec{Name: "gain:k=3"}, "gain:k=3", "invalid gadget spec name"},
		{spec.Spec{Name: "GAIN", Params: map[string]string{"Q": "1"}}, "gain:q=1", `gain has no parameter "q" (accepted: k|size)`},
		{spec.Spec{Name: "Gain", Params: map[string]string{"K": "0"}}, "gain:k=0", "toy: gain: k must be >= 1"},
	} {
		got, err := r.Normalize(c.in)
		if err == nil || !strings.Contains(err.Error(), c.errHas) {
			t.Errorf("Normalize(%v) error = %v, want one containing %q", c.in, err, c.errHas)
		}
		if got.String() != c.canonical {
			t.Errorf("Normalize(%v) returned %q next to its error, want %q", c.in, got, c.canonical)
		}
	}
}
