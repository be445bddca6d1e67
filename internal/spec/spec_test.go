package spec_test

// External test package: it drives the shared grammar through the two
// Grammar values the tree actually uses, so a change to either axis'
// alphabet or reserved set is exercised here too.

import (
	"errors"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all" // bo, sbp, multi, duel, adapt: the specs with tables to build and children to quote
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

// fuzzSeeds is the corpus both fuzz targets start from: each grammar's
// accepted and refused shapes, quoted sub-specs in canonical and
// non-canonical spellings, and every kind of default Normalize drops.
var fuzzSeeds = []string{
	"bo", "nextline", "offset:d=4", "bo:badscore=5,rr=64", "BO:BadScore=5",
	"  bo : rr = 64 ", "bo:", ":d=1", "a=b", "x:y=z,,", "offset:d=-3", "s t r",
	"duel:a=bo.degree~2,b=multi.offsets~1+2+8;minscore~6,period=4096",
	"adapt:base=multi,key=minscore,levels=48+24+12+6", "duel:a=.~;", "adapt:base=~~..;;",
	"duel:a=bo.scoremax~31,b=multi.maxissue~04", "adapt:base=BO.BadScore~01", "duel:a=duel",
	"bo:scoremax=31", "offset:d=01", "sbp:period=128,cutoff1=256", "bo:rr=x",
	"429.mcf", "459.GemsFDTD", "stream:stride=128", "gups:footprint=64mb,storepct=25",
	"mix:gens=stream+pchase,weights=2+1", "mix:weights=1+1", "gups:footprint=67108864",
	"file:path=/tmp/x.trace", "file:sha=ab12", "file:path=/x,sha=ab",
	";", "x:y=z;q", strings.Repeat("a", 300),
}

// FuzzParse checks, for both grammars, that whatever Parse accepts survives
// the canonical round trip — parse -> String -> parse yields an equal spec
// and the canonical form is a fixed point — and that each grammar keeps its
// own promise: prefetcher names come back lower-cased, no accepted workload
// value contains ';'. Normalize must never panic either, whatever the name
// resolves to, and a normalized form must re-parse.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
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

// axis is one registry seen through the calls the memo tests need, so both
// can sit in one table although their Build types differ.
type axis struct {
	grammar   spec.Grammar
	normalize func(spec.Spec) (spec.Spec, error)
	fresh     func(spec.Spec) (spec.Spec, error) // spec's export_test: no memo read or written
	forget    func()
}

var axes = []axis{
	{prefetch.Grammar, prefetch.L2.Normalize, prefetch.L2.NormalizeFresh, prefetch.L2.ForgetNormalized},
	{trace.Grammar, trace.Generators.Normalize, trace.Generators.NormalizeFresh, trace.Generators.ForgetNormalized},
}

// sameAnswer reports how two Normalize results differ ("" when they do
// not): the spec deeply — a nil Params map is not an empty one — and the
// error by its text.
func sameAnswer(got spec.Spec, gotErr error, want spec.Spec, wantErr error) string {
	if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		return fmt.Sprintf("got %#v, %v; want %#v, %v", got, gotErr, want, wantErr)
	}
	return ""
}

// FuzzNormalizeMemo is the differential check of Normalize's memo, for both
// grammars: whatever Parse accepts normalizes to the same spec and the same
// error whether it is computed with an empty memo (children of a quoted
// sub-spec included), stored, or recalled — and neither the argument nor a
// returned spec is shared with the memo, so a caller scribbling on either
// never changes a later answer.
func FuzzNormalizeMemo(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		for _, a := range axes {
			sp, err := a.grammar.Parse(in)
			if err != nil {
				continue
			}
			a.forget()
			want, wantErr := a.fresh(sp)
			for _, pass := range []string{"stored", "recalled", "recalled after scribbling"} {
				arg := spec.Spec{Name: sp.Name, Params: maps.Clone(sp.Params)}
				got, err := a.normalize(arg)
				if diff := sameAnswer(got, err, want, wantErr); diff != "" {
					t.Fatalf("%s: Normalize(%q) %s: %s", a.grammar.Pkg, in, pass, diff)
				}
				for _, m := range []map[string]string{arg.Params, got.Params} {
					for k := range m {
						m[k] = "scribbled"
					}
					if m != nil {
						m["scribbled"] = "too"
					}
				}
			}
		}
	})
}

// TestNormalizeConcurrent normalizes the same and different specs from many
// goroutines at once, as pendingJobs' probe goroutines and RunJobs' workers
// do when they hash; under -race it is the memo's locking test. Refused
// specs are in the mix because they take the write-free path every time.
func TestNormalizeConcurrent(t *testing.T) {
	inputs := [][]string{
		{"bo", "bo:scoremax=31", "BO:BadScore=5", "offset:d=04", "sbp:period=128", "multi:maxissue=4",
			"duel:a=bo.degree~2,b=multi.maxissue~4", "adapt:base=bo.rr~64", "nosuch", "bo:rr=x"},
		{"429.mcf", "gups:footprint=64MB", "mix:gens=stream+pchase,weights=1+1", "stream:stride=128",
			"file:sha=ab12", "nosuch", "gups:footprint=x"},
	}
	type answer struct {
		a    axis
		in   spec.Spec
		want spec.Spec
		err  error
	}
	var answers []answer
	for i, a := range axes {
		a.forget()
		for _, in := range inputs[i] {
			sp := a.grammar.MustParse(in)
			want, err := a.fresh(sp)
			answers = append(answers, answer{a, sp, want, err})
		}
		a.forget() // fresh's children were remembered; start every goroutine cold
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50*len(answers); i++ {
				c := answers[(g+i)%len(answers)]
				got, err := c.a.normalize(c.in)
				if diff := sameAnswer(got, err, c.want, c.err); diff != "" {
					t.Errorf("goroutine %d: Normalize(%q): %s", g, c.in, diff)
					return
				}
				if got.Params != nil {
					got.Params["scribbled"] = "too" // the map is this goroutine's own
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestNormalizeMemoContract pins what the memo remembers, on a toy axis:
// not a failure — a name registered after it was refused is seen, the
// child of a quoting parent included — never more than its bound, however
// many distinct valid specs a process is fed, and never one spec's answer
// for another that merely renders like it.
func TestNormalizeMemoContract(t *testing.T) {
	type build = func(v spec.Values) (int, error)
	g := spec.Grammar{Pkg: "toy", FoldNames: true}
	r := spec.NewRegistry(g, "gadget", func(b build, v spec.Values) error { _, err := b(v); return err })
	r.Register("pair", spec.Definition[build]{
		Defaults: map[string]string{"of": "late"},
		Build:    func(spec.Values) (int, error) { return 0, nil },
		Canonicalize: func(params map[string]string) error {
			child, err := r.Normalize(spec.Spec{Name: params["of"]})
			params["of"] = child.Name
			return err
		},
	})
	late, pair := spec.Spec{Name: "Late"}, spec.Spec{Name: "pair", Params: map[string]string{"of": "LATE"}}
	for _, sp := range []spec.Spec{late, pair} {
		if _, err := r.Normalize(sp); err == nil || !strings.Contains(err.Error(), `unknown gadget "late"`) {
			t.Fatalf("Normalize(%v) before registration: error %v", sp, err)
		}
	}
	if n := r.Remembered(); n != 0 {
		t.Errorf("%d failures remembered", n)
	}
	builds := 0
	r.Register("late", spec.Definition[build]{
		Defaults: map[string]string{"k": "0"},
		IntKeys:  []string{"k"},
		Build: func(v spec.Values) (int, error) {
			builds++
			var err error
			return v.Int("k", 0, &err), err
		},
	})
	for i := 0; i < 3; i++ {
		if got, err := r.Normalize(late); err != nil || got.String() != "late" {
			t.Errorf("Normalize(%v) after registration = %q, %v", late, got, err)
		}
		if got, err := r.Normalize(pair); err != nil || got.String() != "pair" {
			t.Errorf("Normalize(%v) after registration = %q, %v; want the default child dropped", pair, got, err)
		}
	}
	if builds != 1 {
		t.Errorf("late was built %d times for three lookups directly and three as a child, want once", builds)
	}

	for k := 1; k <= 10*spec.MemoLimit; k++ {
		in := spec.Spec{Name: "late", Params: map[string]string{"k": fmt.Sprintf("0%d", k)}}
		if got, err := r.Normalize(in); err != nil || got.String() != fmt.Sprintf("late:k=%d", k) {
			t.Fatalf("Normalize(%v) = %q, %v", in, got, err)
		}
		if n := r.Remembered(); n > spec.MemoLimit {
			t.Fatalf("memo holds %d specs after %d distinct ones, bound %d", n, k, spec.MemoLimit)
		}
	}
	if got, err := r.Normalize(pair); err != nil || got.String() != "pair" {
		t.Errorf("Normalize(%v) after the memo turned over = %q, %v", pair, got, err)
	}

	// The memo's key is the rendered spec, and specs built as literals can
	// share one: a path holding ",sha=" renders like a path beside a sha.
	// The first is a valid spec, the second is refused, remembered or not.
	odd := trace.Spec{Name: "file", Params: map[string]string{"path": "/x,sha=ab"}}
	both := trace.Spec{Name: "file", Params: map[string]string{"path": "/x", "sha": "ab"}}
	if odd.String() != both.String() {
		t.Fatalf("%q and %q were meant to render alike", odd, both)
	}
	if got, err := trace.Normalize(odd); err != nil || !reflect.DeepEqual(got, odd) {
		t.Errorf("Normalize(%#v) = %#v, %v", odd, got, err)
	}
	if got, err := trace.Normalize(both); err == nil {
		t.Errorf("Normalize(%#v) = %#v: answered from the spec it renders like", both, got)
	}
}
