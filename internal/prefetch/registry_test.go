package prefetch

import (
	"strings"
	"testing"

	"bopsim/internal/mem"
	"bopsim/internal/spec"
)

func TestBuiltinL2Registrations(t *testing.T) {
	names := L2Names()
	for _, want := range []string{"none", "nextline", "offset"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("builtin %q not registered (have %v)", want, names)
		}
	}
	if p, err := NewL2(Spec{Name: "nextline"}, mem.Page4K); err != nil || p.Name() != "next-line" {
		t.Errorf("nextline build: %v, %v", p, err)
	}
	p, err := NewL2(MustSpec("offset:d=7"), mem.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if fo, ok := p.(*FixedOffset); !ok || fo.Offset() != 7 {
		t.Errorf("offset:d=7 built %T with offset %v", p, p)
	}
	if _, err := NewL2(MustSpec("offset:d=0"), mem.Page4K); err == nil {
		t.Error("offset:d=0 accepted")
	}
}

func TestNewL2UnknownNameListsAlternatives(t *testing.T) {
	_, err := NewL2(Spec{Name: "nosuch"}, mem.Page4K)
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	if !strings.Contains(err.Error(), "nextline") {
		t.Errorf("error does not list registered names: %v", err)
	}
	_, err = NewL2(MustSpec("offset:q=1"), mem.Page4K)
	if err == nil {
		t.Fatal("unknown parameter accepted")
	}
	if !strings.Contains(err.Error(), "d") {
		t.Errorf("error does not list accepted parameters: %v", err)
	}
}

func TestL1NoneBuildsNil(t *testing.T) {
	p, err := NewL1(Spec{Name: "none"}, mem.Page4K)
	if err != nil {
		t.Fatal(err)
	}
	if p != nil {
		t.Errorf("L1 none built %T, want nil (disabled)", p)
	}
}

func TestRegisterRejectsDuplicatesAndBadNames(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	// Each case is otherwise complete, so only the named defect can be
	// what panics.
	build := func(mem.PageSize, Values) (L2Prefetcher, error) { return None{}, nil }
	expectPanic("duplicate registration", func() {
		RegisterL2("nextline", L2Def{Build: build, Defaults: map[string]string{}})
	})
	expectPanic("bad name", func() {
		RegisterL2("Next Line", L2Def{Build: build, Defaults: map[string]string{}})
	})
	expectPanic("nil Build", func() {
		RegisterL2("broken", L2Def{Defaults: map[string]string{}})
	})
	expectPanic("nil Defaults", func() {
		RegisterL2("schemaless", L2Def{Build: build})
	})
	for _, name := range []string{"broken", "schemaless"} {
		if _, err := NewL2(Spec{Name: name}, mem.Page4K); err == nil {
			t.Errorf("refused registration %q is in the registry", name)
		}
	}
}

func TestValuesAccessors(t *testing.T) {
	v := Values{"a": "3", "b": "true", "c": "1+2+-3", "bad": "x"}
	var err error
	if got := v.Int("a", 0, &err); got != 3 || err != nil {
		t.Errorf("Int = %d, %v", got, err)
	}
	if got := v.Bool("b", false, &err); !got || err != nil {
		t.Errorf("Bool = %v, %v", got, err)
	}
	if got := v.Ints("c", nil, &err); err != nil || len(got) != 3 || got[2] != -3 {
		t.Errorf("Ints = %v, %v", got, err)
	}
	if got := v.Int("missing", 42, &err); got != 42 || err != nil {
		t.Errorf("Int default = %d, %v", got, err)
	}
	v.Int("bad", 0, &err)
	if err == nil {
		t.Error("bad int accepted")
	}
	// First error sticks.
	first := err
	v.Bool("bad", false, &err)
	if err != first {
		t.Error("error accumulator overwrote the first error")
	}
}

func TestFormatIntsRoundTrips(t *testing.T) {
	list := []int{1, -2, 300}
	var err error
	got := Values{"x": spec.FormatInts(list)}.Ints("x", nil, &err)
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != -2 || got[2] != 300 {
		t.Errorf("FormatInts round trip = %v, %v", got, err)
	}
}
