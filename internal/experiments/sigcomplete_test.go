package experiments

import (
	"reflect"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
)

// postBarrier lists the engine.Options fields a warmup signature leaves out
// on purpose, each with why it cannot shape the machine the barrier hands
// over. Everything else must move WarmupSignature, or two differently warmed
// runs would share one checkpoint.
var postBarrier = map[string]string{
	"L2PF":         "the warmup runs without prefetchers; they are installed cold at the barrier",
	"L1PF":         "the warmup runs without prefetchers; they are installed cold at the barrier",
	"Instructions": "the measured-region length cannot shape state warmed before the barrier",
	"MaxCycles":    "the abort ceiling only ends a run, it cannot shape pre-barrier state",
}

// TestOptionsReachHashAndSignature changes one leaf of engine.Options at a
// time, by the smallest step its kind has, and requires the change to show
// in both identities derived from Options: OptionsHash (the result-cache
// key and the distrib job key) for every leaf, WarmupSignature (what a
// checkpoint is shared by) for every leaf outside postBarrier. A field that
// is unexported, tagged `json:"-"`, left out of the signature or carried
// into it lossily fails here, and so does a field of a kind the walk has no
// step for: a new Options field is classified before it can alias two runs.
func TestOptionsReachHashAndSignature(t *testing.T) {
	// Every leaf is set, and to something Normalized leaves alone, so no
	// step is absorbed by a default or echoed by a derived field (a zero
	// MaxCycles is derived from Instructions and Warmup).
	base := func() engine.Options {
		o := engine.DefaultOptions("gups:footprint=64mb")
		o.L2PF = prefetch.MustSpec("bo:badscore=5")
		o.L1PF = prefetch.MustSpec("stride:dist=8")
		o.MaxCycles = 1 << 40
		o.Warmup = 1000
		return o
	}
	baseHash := OptionsHash(base())
	baseSig, err := base().WarmupSignature()
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	check := func(path string, leaf func(root reflect.Value) reflect.Value, step func(reflect.Value)) {
		o := base()
		step(leaf(reflect.ValueOf(&o).Elem()))
		if OptionsHash(o) == baseHash {
			t.Errorf("Options.%s does not reach OptionsHash: two runs differing in it share a cache key, and the second is served the first's result", path)
		}
		sig, err := o.WarmupSignature()
		if err != nil {
			t.Fatalf("Options.%s: %v", path, err)
		}
		top := path
		if i := strings.IndexAny(path, ".["); i >= 0 {
			top = path[:i]
		}
		seen[top] = true
		if why, post := postBarrier[top]; post && sig != baseSig {
			t.Errorf("Options.%s moves WarmupSignature but postBarrier exempts it (%q); drop the entry", path, why)
		} else if !post && sig == baseSig {
			t.Errorf("Options.%s does not reach WarmupSignature: two runs differing in it share a warmup checkpoint; carry it in warmupSig, or add it to postBarrier with why it cannot shape pre-barrier state", path)
		}
	}

	var walk func(path string, typ reflect.Type, leaf func(reflect.Value) reflect.Value)
	walk = func(path string, typ reflect.Type, leaf func(reflect.Value) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				child := strings.TrimPrefix(path+"."+f.Name, ".")
				if !f.IsExported() {
					t.Errorf("Options.%s is unexported, so OptionsHash and the wire cannot see it", child)
					continue
				}
				walk(child, f.Type, func(r reflect.Value) reflect.Value { return leaf(r).Field(i) })
			}
		case reflect.Slice:
			if leaf(reflect.ValueOf(base())).Len() == 0 {
				t.Fatalf("the base options leave Options.%s empty; populate it", path)
			}
			walk(path+"[0]", typ.Elem(), func(r reflect.Value) reflect.Value { return leaf(r).Index(0) })
			check(path+"[len]", leaf, func(v reflect.Value) { v.Set(reflect.Append(v, v.Index(0))) })
		case reflect.Bool:
			check(path, leaf, func(v reflect.Value) { v.SetBool(!v.Bool()) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			check(path, leaf, func(v reflect.Value) { v.SetInt(v.Int() ^ 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			check(path, leaf, func(v reflect.Value) { v.SetUint(v.Uint() ^ 1) })
		case reflect.String:
			check(path, leaf, func(v reflect.Value) { v.SetString(v.String() + "x") })
		default:
			if typ != reflect.TypeOf(map[string]string(nil)) {
				t.Fatalf("Options.%s is a %s: teach this test to step it", path, typ)
			}
			check(path, leaf, func(v reflect.Value) {
				m := map[string]string{"zz": "1"}
				for _, k := range v.MapKeys() {
					m[k.String()] = v.MapIndex(k).String()
				}
				v.Set(reflect.ValueOf(m))
			})
		}
	}
	walk("", reflect.TypeOf(engine.Options{}), func(r reflect.Value) reflect.Value { return r })

	for name := range postBarrier {
		if !seen[name] {
			t.Errorf("postBarrier names %s, which is not an Options field", name)
		}
	}
}
