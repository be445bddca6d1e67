package experiments

import (
	"fmt"
	"maps"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bopsim/internal/engine"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
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

// optionsBase returns options with every leaf set, and to something
// Normalized leaves alone, so no step is absorbed by a default or echoed by
// a derived field (a zero MaxCycles is derived from Instructions and
// Warmup).
func optionsBase() engine.Options {
	o := engine.DefaultOptions("gups:footprint=64mb")
	o.L2PF = prefetch.MustSpec("bo:badscore=5")
	o.L1PF = prefetch.MustSpec("stride:dist=8")
	o.MaxCycles = 1 << 40
	o.Warmup = 1000
	return o
}

// optionStep changes one leaf of engine.Options, named by path, by the
// smallest step its kind has.
type optionStep struct {
	path  string
	apply func(*engine.Options)
}

// optionSteps walks engine.Options and returns one step per leaf, and one
// more per slice that lengthens it. An unexported field, which OptionsHash
// and the wire cannot see, is an error, and a field of a kind the walk has
// no step for is fatal: a new Options field is classified before it can
// alias two runs.
func optionSteps(tb testing.TB) []optionStep {
	var steps []optionStep
	add := func(path string, leaf func(reflect.Value) reflect.Value, step func(reflect.Value)) {
		steps = append(steps, optionStep{path, func(o *engine.Options) { step(leaf(reflect.ValueOf(o).Elem())) }})
	}
	var walk func(path string, typ reflect.Type, leaf func(reflect.Value) reflect.Value)
	walk = func(path string, typ reflect.Type, leaf func(reflect.Value) reflect.Value) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				child := strings.TrimPrefix(path+"."+f.Name, ".")
				if !f.IsExported() {
					tb.Errorf("Options.%s is unexported, so OptionsHash and the wire cannot see it", child)
					continue
				}
				walk(child, f.Type, func(r reflect.Value) reflect.Value { return leaf(r).Field(i) })
			}
		case reflect.Slice:
			if leaf(reflect.ValueOf(optionsBase())).Len() == 0 {
				tb.Fatalf("the base options leave Options.%s empty; populate it", path)
			}
			walk(path+"[0]", typ.Elem(), func(r reflect.Value) reflect.Value { return leaf(r).Index(0) })
			add(path+"[len]", leaf, func(v reflect.Value) { v.Set(reflect.Append(v, v.Index(0))) })
		case reflect.Bool:
			add(path, leaf, func(v reflect.Value) { v.SetBool(!v.Bool()) })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			add(path, leaf, func(v reflect.Value) { v.SetInt(v.Int() ^ 1) })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			add(path, leaf, func(v reflect.Value) { v.SetUint(v.Uint() ^ 1) })
		case reflect.String:
			add(path, leaf, func(v reflect.Value) { v.SetString(v.String() + "x") })
		default:
			if typ != reflect.TypeOf(map[string]string(nil)) {
				tb.Fatalf("Options.%s is a %s: teach this test to step it", path, typ)
			}
			add(path, leaf, func(v reflect.Value) {
				m := map[string]string{"zz": "1"}
				for _, k := range v.MapKeys() {
					m[k.String()] = v.MapIndex(k).String()
				}
				v.Set(reflect.ValueOf(m))
			})
		}
	}
	walk("", reflect.TypeOf(engine.Options{}), func(r reflect.Value) reflect.Value { return r })
	return steps
}

// TestOptionsReachHashAndSignature changes one leaf of engine.Options at a
// time (optionSteps) and requires the change to show in both identities
// derived from Options and in the equality that stands in for them:
// OptionsHash (the result-cache key and the distrib job key) for every
// leaf, WarmupSignature (what a checkpoint is shared by) for every leaf
// outside postBarrier, and sameOptions (the key memo's and the assembly
// pass's check) for every leaf. A field that is unexported, tagged
// `json:"-"`, left out of the signature or of sameOptions, or carried into
// either lossily fails here, and so does a field of a kind the walk has no
// step for.
func TestOptionsReachHashAndSignature(t *testing.T) {
	baseHash := OptionsHash(optionsBase())
	baseSig, err := optionsBase().WarmupSignature()
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, step := range optionSteps(t) {
		path := step.path
		o := optionsBase()
		step.apply(&o)
		if OptionsHash(o) == baseHash {
			t.Errorf("Options.%s does not reach OptionsHash: two runs differing in it share a cache key, and the second is served the first's result", path)
		}
		if sameOptions(o, optionsBase()) {
			t.Errorf("Options.%s does not reach sameOptions: the key memo would answer a cell differing in it with another cell's key", path)
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

	for name := range postBarrier {
		if !seen[name] {
			t.Errorf("postBarrier names %s, which is not an Options field", name)
		}
	}
}

// paramsAt names the three spec positions of engine.Options, each with the
// Params map it holds. Workloads[0] needs a non-empty Workloads.
var paramsAt = []struct {
	name string
	at   func(*engine.Options) *map[string]string
}{
	{"Workloads[0].Params", func(o *engine.Options) *map[string]string { return &o.Workloads[0].Params }},
	{"L2PF.Params", func(o *engine.Options) *map[string]string { return &o.L2PF.Params }},
	{"L1PF.Params", func(o *engine.Options) *map[string]string { return &o.L1PF.Params }},
}

// TestSameOptionsIsDeepEqual holds sameOptions to reflect.DeepEqual's answer
// where the two could part: a nil slice or map against an empty one (unequal
// to DeepEqual), options sharing their slice and maps (equal without a look
// at the elements), and maps holding the same pairs inserted in different
// orders (equal).
func TestSameOptionsIsDeepEqual(t *testing.T) {
	type row struct {
		name string
		a, b engine.Options
		want bool
	}
	a, b := optionsBase(), optionsBase()
	rows := []row{{"separately built", a, b, true}}
	a, b = optionsBase(), optionsBase()
	a.Workloads, b.Workloads = nil, []trace.Spec{}
	rows = append(rows, row{"nil against empty Workloads", a, b, false})
	for _, p := range paramsAt {
		a, b := optionsBase(), optionsBase()
		*p.at(&a), *p.at(&b) = nil, map[string]string{}
		rows = append(rows, row{"nil against empty " + p.name, a, b, false})
	}
	a = optionsBase()
	rows = append(rows, row{"aliased slices and maps", a, a, true})
	b = a
	b.L1PF.Params = maps.Clone(a.L1PF.Params)
	b.L1PF.Params["dist"] += "0"
	rows = append(rows, row{"aliased slice, one map differing", a, b, false})
	a, b = optionsBase(), optionsBase()
	a.L2PF.Params, b.L2PF.Params = map[string]string{}, map[string]string{}
	for i := range 64 {
		a.L2PF.Params["k"+strconv.Itoa(i)] = strconv.Itoa(i)
		b.L2PF.Params["k"+strconv.Itoa(63-i)] = strconv.Itoa(63 - i)
	}
	rows = append(rows, row{"equal maps built in different insertion orders", a, b, true})

	for _, r := range rows {
		deep := reflect.DeepEqual(r.a, r.b)
		if deep != r.want {
			t.Fatalf("%s: reflect.DeepEqual says %v; the row no longer tests what it names", r.name, deep)
		}
		if got, back := sameOptions(r.a, r.b), sameOptions(r.b, r.a); got != deep || back != deep {
			t.Errorf("%s: sameOptions says %v (%v the other way round), reflect.DeepEqual %v", r.name, got, back, deep)
		}
	}
}

// FuzzSameOptions derives two options from the fuzz bytes, starting both
// from optionsBase: each byte applies one operation to one of them — a leaf
// step (optionSteps), a nil or empty Workloads or Params at any spec
// position, a private deep copy (cloneOptions) or a copy of the other
// options that shares their slice and maps. sameOptions must then answer
// what reflect.DeepEqual answers.
func FuzzSameOptions(f *testing.F) {
	type op struct {
		name  string
		apply func(*engine.Options)
	}
	var ops []op
	for _, s := range optionSteps(f) {
		ops = append(ops, op{s.path, s.apply})
	}
	ops = append(ops,
		op{"Workloads=nil", func(o *engine.Options) { o.Workloads = nil }},
		op{"Workloads=empty", func(o *engine.Options) { o.Workloads = []trace.Spec{} }},
		op{"clone", func(o *engine.Options) { *o = cloneOptions(*o) }})
	for _, p := range paramsAt {
		ops = append(ops,
			op{p.name + "=nil", func(o *engine.Options) { *p.at(o) = nil }},
			op{p.name + "=empty", func(o *engine.Options) { *p.at(o) = map[string]string{} }})
	}
	// Every operation alone, and every pair of one on each side: a nil
	// Params against an empty one takes two chosen bytes, which coverage
	// alone does not lead the fuzzer to.
	f.Add([]byte{})
	for i := range len(ops) + 1 {
		f.Add([]byte{byte(2 * i)})
		for j := range len(ops) + 1 {
			f.Add([]byte{byte(2 * i), byte(2*j + 1)})
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sides := [2]engine.Options{optionsBase(), optionsBase()}
		var trail []string
		for _, x := range data {
			side, i := x&1, int(x>>1)%(len(ops)+1)
			o := &sides[side]
			if i == len(ops) { // this side becomes a copy of the other
				*o = sides[1-side]
				trail = append(trail, fmt.Sprintf("%d:alias", side))
				continue
			}
			if strings.HasPrefix(ops[i].name, "Workloads[") && len(o.Workloads) == 0 {
				continue // no element to step
			}
			ops[i].apply(o)
			trail = append(trail, fmt.Sprintf("%d:%s", side, ops[i].name))
		}
		if got, want := sameOptions(sides[0], sides[1]), reflect.DeepEqual(sides[0], sides[1]); got != want {
			t.Fatalf("after %v: sameOptions says %v, reflect.DeepEqual %v", trail, got, want)
		}
	})
}
