package prefetch_test

// External test package: unlike the in-package tests, this one can link
// internal/prefetch/all (the in-package tests cannot import it — the
// implementations import prefetch back), so it exercises the registry
// exactly as the engine sees it, with every prefetcher registered.

import (
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	_ "bopsim/internal/prefetch/all"
)

func TestFullRegistryNames(t *testing.T) {
	l2 := map[string]bool{}
	for _, n := range prefetch.L2Names() {
		l2[n] = true
	}
	for _, want := range []string{"none", "nextline", "offset", "bo", "sbp", "multi"} {
		if !l2[want] {
			t.Errorf("L2 registry missing %q: %v", want, prefetch.L2Names())
		}
	}
	l1 := map[string]bool{}
	for _, n := range prefetch.L1Names() {
		l1[n] = true
	}
	for _, want := range []string{"none", "stride"} {
		if !l1[want] {
			t.Errorf("L1 registry missing %q: %v", want, prefetch.L1Names())
		}
	}
	for _, n := range prefetch.L2Names() {
		if prefetch.L2.Help(n) == "" {
			t.Errorf("registered prefetcher %q has no help line", n)
		}
	}
}

func TestNormalizeDropsRegisteredDefaults(t *testing.T) {
	cases := []struct{ in, want string }{
		{"bo:scoremax=31", "bo"},
		{"bo:scoremax=31,badscore=5", "bo:badscore=5"},
		{"sbp:period=256", "sbp"},
		{"sbp:period=128", "sbp:period=128"},
		{"multi:maxissue=4", "multi"},
		// Dropping a spelled-out default must be semantics-preserving even
		// next to a non-default period: the cutoff defaults are static
		// (never derived from the period), so these two are one config...
		{"sbp:period=128,cutoff1=256", "sbp:period=128"},
		// ...while a genuinely non-default cutoff is kept.
		{"sbp:period=128,cutoff1=128", "sbp:cutoff1=128,period=128"},
		// Integer-typed values — scalars and '+'-lists — re-render
		// canonically (IntKeys), so a zero-padded spelling of a default, or
		// of any value, is not a second cache key for the same run.
		{"offset:d=04", "offset:d=4"},
		{"offset:d=01", "offset"},
		{"bo:badscore=01", "bo"},
		{"bo:badscore=05,rr=0256", "bo:badscore=5"},
		{"bo:offsets=01+2+008", "bo:offsets=1+2+8"},
		{"sbp:period=0128,bits=02048", "sbp:period=128"},
		{"multi:offsets=01+2+4+8", "multi:offsets=1+2+4+8"},
		{"duel:period=0512,a=offset.d~04", "duel:a=offset.d~4,period=512"},
		{"adapt:window=08192,base=bo.badscore~01", "adapt:window=8192"},
		// String-typed values keep their spelling.
		{"adapt:base=multi,key=minscore,levels=048+24", "adapt:base=multi,key=minscore,levels=048+24"},
	}
	for _, c := range cases {
		got, err := prefetch.NormalizeL2(prefetch.MustSpec(c.in))
		if err != nil {
			t.Errorf("NormalizeL2(%q): %v", c.in, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("NormalizeL2(%q) = %q, want %q", c.in, got.String(), c.want)
		}
	}
	for _, in := range []string{"stride:dist=16", "stride:dist=016"} {
		if got, err := prefetch.NormalizeL1(prefetch.MustSpec(in)); err != nil || got.String() != "stride" {
			t.Errorf("NormalizeL1(%s) = %q, %v", in, got, err)
		}
	}
	// L1 and L2 namespaces stay separate even fully linked.
	if _, err := prefetch.NormalizeL1(prefetch.Spec{Name: "bo"}); err == nil {
		t.Error("L2-only name accepted by the L1 registry")
	}
}

func TestEveryRegisteredL2BuildsWithDefaults(t *testing.T) {
	for _, name := range prefetch.L2Names() {
		p, err := prefetch.NewL2(prefetch.Spec{Name: name}, mem.Page4K)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if name != "none" && p == nil {
			t.Errorf("%s built nil", name)
		}
	}
	for _, name := range prefetch.L1Names() {
		if _, err := prefetch.NewL1(prefetch.Spec{Name: name}, mem.Page4K); err != nil {
			t.Errorf("L1 %s: %v", name, err)
		}
	}
}

func TestBOParameterValidation(t *testing.T) {
	for _, bad := range []string{
		"bo:degree=3", "bo:rr=0", "bo:offsets=1+0", "bo:scoremax=0",
		"bo:minbad=5,maxbad=2", "sbp:period=0", "stride-not-l2",
		// Geometry constraints must surface as errors, not construction
		// panics reached through the registry.
		"bo:rr=100", "bo:tagbits=20", "sbp:bits=100", "sbp:bits=-1",
	} {
		sp, err := prefetch.ParseSpec(bad)
		if err != nil {
			continue // syntactically invalid is also fine
		}
		if _, err := prefetch.NewL2(sp, mem.Page4K); err == nil {
			t.Errorf("NewL2(%q) accepted", bad)
		}
	}
	// Extension knobs build real prefetchers.
	for _, good := range []string{
		"bo:degree=2", "bo:adaptive=true", "bo:offsets=1+2+-4",
		"bo:rratissue=true,allaccess=true", "sbp:period=128,maxissue=2",
	} {
		if _, err := prefetch.NewL2(prefetch.MustSpec(good), mem.Page4K); err != nil {
			t.Errorf("NewL2(%q): %v", good, err)
		}
	}
}
