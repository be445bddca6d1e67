package trace

import (
	"fmt"
	"strconv"
	"strings"

	"bopsim/internal/mem"
	"bopsim/internal/rng"
	"bopsim/internal/spec"
)

// This file registers the parameterized micro-pattern generators the
// registry makes cheap to grow: the cache thrasher of section 5.1, a pure
// constant-stride stream, a pointer chase, a GUPS-style random-update
// kernel, the recorded-trace replayer, and a "mix" combinator interleaving
// other registered generators. None of them is known to the engine or the
// scheduler by name — they are constructed from Specs like everything else.

func init() {
	registerMicrothrash()
	registerStream()
	registerPChase()
	registerGUPS()
	registerMix()
	registerFile()
}

// registerMixerPattern registers one single-component mixer generator:
// the Defaults map, key typing, Validate and Build skeleton are all
// derived from one mixerPrep, so the four micro-patterns cannot drift
// apart as parameters or validation rules evolve.
type mixerPattern struct {
	name, help string
	prep       mixerPrep
	// hasStride/hasStore expose the stride / storepct keys in the schema;
	// patterns without them still validate against prep's fixed values.
	hasStride, hasStore bool
	comps               func(c mixerCfg) []weightedComp
}

func registerMixerPattern(d mixerPattern) {
	defaults := map[string]string{
		"seed":       "0",
		"memper1000": strconv.Itoa(d.prep.mp),
		"footprint":  spec.FormatSize(d.prep.fp),
	}
	intKeys := []string{"seed", "memper1000"}
	if d.hasStride {
		defaults["stride"] = strconv.Itoa(d.prep.stride)
		intKeys = append(intKeys, "stride")
	}
	if d.hasStore {
		defaults["storepct"] = strconv.Itoa(d.prep.store)
		intKeys = append(intKeys, "storepct")
	}
	Register(d.name, Definition{
		Defaults: defaults,
		SizeKeys: []string{"footprint"},
		IntKeys:  intKeys,
		Validate: d.prep.validate,
		Build: func(seed uint64, v Values) (Generator, error) {
			c, err := d.prep.parse(seed, v)
			if err != nil {
				return nil, err
			}
			return newMixer(d.name, c.mp, d.comps(c), c.seed), nil
		},
		Help: d.help,
	})
}

// registerMicrothrash registers the cache-thrashing micro-benchmark the
// engine schedules on satellite cores by default. Its defaults reproduce
// the historical NewThrasher stream bit for bit.
func registerMicrothrash() {
	registerMixerPattern(mixerPattern{
		name:      "microthrash",
		help:      "cache-thrashing writer of section 5.1 (satellite-core default)",
		prep:      mixerPrep{mp: 500, stride: 64, store: 100, fp: 256 * mb},
		hasStride: true, hasStore: true,
		comps: func(c mixerCfg) []weightedComp {
			return []weightedComp{{1, newStream(0x8000, regionBase(16), int64(c.stride), c.fp, c.store)}}
		},
	})
}

func registerStream() {
	registerMixerPattern(mixerPattern{
		name:      "stream",
		help:      "pure constant-stride stream (stride in bytes, wraps in footprint)",
		prep:      mixerPrep{mp: 1000, stride: 64, store: 0, fp: 8 * mb},
		hasStride: true, hasStore: true,
		comps: func(c mixerCfg) []weightedComp {
			return []weightedComp{{1, newStream(0x4000, regionBase(0), int64(c.stride), c.fp, c.store)}}
		},
	})
}

func registerPChase() {
	registerMixerPattern(mixerPattern{
		name: "pchase",
		help: "serialized pointer chase over a uniform-random working set",
		prep: mixerPrep{mp: 250, stride: 8, store: 0, fp: 64 * mb},
		comps: func(c mixerCfg) []weightedComp {
			return []weightedComp{{1, newRandom(0x4000, 1, regionBase(0), c.fp, 0, true)}}
		},
	})
}

func registerGUPS() {
	registerMixerPattern(mixerPattern{
		name:     "gups",
		help:     "GUPS-style random update (independent reads + writes)",
		prep:     mixerPrep{mp: 500, stride: 8, store: 50, fp: 64 * mb},
		hasStore: true,
		comps: func(c mixerCfg) []weightedComp {
			return []weightedComp{{1, newRandom(0x4000, 8, regionBase(0), c.fp, c.store, false)}}
		},
	})
}

// mixerPrep carries one mixer registration's parameter defaults and
// provides the shared parse-and-check step both Build and Validate run —
// so Normalize never has to construct a generator just to validate a spec,
// and the two paths cannot drift.
type mixerPrep struct {
	mp, stride, store int
	fp                mem.Addr
}

// mixerCfg is one parsed, validated parameter set.
type mixerCfg struct {
	seed              uint64
	mp, stride, store int
	fp                mem.Addr
}

func (d mixerPrep) parse(seed uint64, v Values) (mixerCfg, error) {
	var err error
	c := mixerCfg{
		seed:   v.Seed(seed, &err),
		mp:     v.Int("memper1000", d.mp, &err),
		stride: v.Int("stride", d.stride, &err),
		store:  v.Int("storepct", d.store, &err),
		fp:     v.Size("footprint", d.fp, &err),
	}
	if err != nil {
		return mixerCfg{}, err
	}
	if err := checkMixerParams(c.mp, c.store, c.stride, c.fp); err != nil {
		return mixerCfg{}, err
	}
	return c, nil
}

func (d mixerPrep) validate(v Values) error {
	_, err := d.parse(1, v)
	return err
}

// checkMixerParams is the shared validation for every mixer-built
// generator (the benchmark stand-ins included): tighten a rule here and
// all registrations inherit it. Generators without a stride or storepct
// parameter pass a neutral in-range value.
func checkMixerParams(memPer1000, storePct, stride int, fp mem.Addr) error {
	if memPer1000 < 0 || memPer1000 > 1000 {
		return fmt.Errorf("memper1000=%d out of range 0..1000", memPer1000)
	}
	if storePct < 0 || storePct > 100 {
		return fmt.Errorf("storepct=%d out of range 0..100", storePct)
	}
	if stride < 1 {
		// A non-positive stride degenerates to a single hot line under the
		// components' wrap logic — reject rather than measure garbage.
		return fmt.Errorf("stride=%d must be >= 1", stride)
	}
	if mem.Addr(stride) >= fp {
		// A stride at or past the footprint wraps to position zero on every
		// step: the same single-hot-line degeneration, just spelled larger.
		return fmt.Errorf("stride=%d not below footprint %s", stride, spec.FormatSize(fp))
	}
	if fp < 64*kb {
		// 64kb keeps every component's geometry meaningful after footprint
		// scaling: the striped patterns (433.milc's 32 stripes,
		// 459.GemsFDTD's 24-stripe stride sequence) need dozens of lines
		// per stripe, and below this floor they would degenerate to a
		// handful of hot lines.
		return fmt.Errorf("footprint %s below the 64kb minimum", spec.FormatSize(fp))
	}
	if fp > mb<<10 {
		// Component address regions are spaced 1GB apart (regionBase), so a
		// larger footprint would silently overlap a benchmark's neighbouring
		// components. 1GB also dwarfs every cache level being studied.
		return fmt.Errorf("footprint %s above the 1gb region-spacing maximum", spec.FormatSize(fp))
	}
	return nil
}

// maxWeight bounds one weight so any realistic weights list sums without
// overflowing the mixer's int accumulator (rng.Intn panics on a
// non-positive bound, which must never be reachable from a spec string).
const maxWeight = 1_000_000

// checkWeights is the shared validation for weights lists (the benchmark
// stand-ins' component weights and mix's interleave ratios): one entry per
// slot, every weight in 1..maxWeight.
func checkWeights(weights []int, slots int, what string) error {
	if len(weights) != slots {
		return fmt.Errorf("weights lists %d values, %s has %d", len(weights), what, slots)
	}
	for i, w := range weights {
		if w < 1 || w > maxWeight {
			return fmt.Errorf("weights[%d]=%d out of range 1..%d", i, w, maxWeight)
		}
	}
	return nil
}

// mixGen interleaves whole sub-generator streams by weight: each Next picks
// a sub-generator with probability weight/sum and forwards its instruction.
// Sub-generators keep their own ALU/memory mixes and address regions. The
// micro-pattern generators all place components at fixed bases
// (regionBase(0)), so by default mixed sub-generators — same-name or not —
// generally share a region: mix models contention on one working set. The
// region= parameter opts out per slot: a sub-generator with a non-zero
// region index is shifted into its own disjoint address range (see
// regionGen), turning the same mix into a model of co-running programs —
// the interference-matrix building block (DESIGN.md section 0).
type mixGen struct {
	rand      *rng.Stream
	subs      []StatefulGenerator
	weights   []int
	weightSum int
}

// Name implements Generator.
func (m *mixGen) Name() string { return "mix" }

// Next implements Generator.
//
//bovet:hotpath
func (m *mixGen) Next() Inst {
	pick := m.rand.Intn(m.weightSum)
	for i, w := range m.weights {
		pick -= w
		if pick < 0 {
			return m.subs[i].Next()
		}
	}
	return m.subs[len(m.subs)-1].Next()
}

// SaveGenState implements StatefulGenerator.
func (m *mixGen) SaveGenState() GenState {
	st := GenState{Kind: "mix", Rand: m.rand.State()}
	for _, sub := range m.subs {
		st.Subs = append(st.Subs, sub.SaveGenState())
	}
	return st
}

// RestoreGenState implements StatefulGenerator.
func (m *mixGen) RestoreGenState(st GenState) error {
	if st.Kind != "mix" {
		return fmt.Errorf("trace: generator state kind %q, want \"mix\"", st.Kind)
	}
	if len(st.Subs) != len(m.subs) {
		return fmt.Errorf("trace: state has %d sub-generators, mix has %d", len(st.Subs), len(m.subs))
	}
	for i, sub := range m.subs {
		if err := sub.RestoreGenState(st.Subs[i]); err != nil {
			return fmt.Errorf("trace: mix sub-generator %d: %w", i, err)
		}
	}
	m.rand.SetState(st.Rand)
	return nil
}

// regionSpan is the address-space stride of mix's region= parameter: 1TB,
// far above any component span the generators can produce (regionBase
// places components 1GB apart starting at 1<<36, and footprints are capped
// at 1GB), so distinct region indices can never collide.
const regionSpan = mem.Addr(1) << 40

// maxRegion bounds region indices. 255 regions of 1TB stay far inside the
// 64-bit address space while allowing any plausible co-run matrix.
const maxRegion = 255

// regionGen shifts every memory access of a sub-generator by a fixed
// region offset — the building block behind mix's region= parameter. The
// offset is spec-derived configuration, not state: checkpoint save and
// restore pass straight through to the wrapped generator, and a restored
// mix rebuilds the same offsets from its spec.
type regionGen struct {
	sub    StatefulGenerator
	offset mem.Addr
}

// Name implements Generator.
func (g *regionGen) Name() string { return g.sub.Name() }

// Next implements Generator.
//
//bovet:hotpath
func (g *regionGen) Next() Inst {
	inst := g.sub.Next()
	if inst.Op != OpALU {
		inst.VA += g.offset
	}
	return inst
}

// SaveGenState implements StatefulGenerator.
func (g *regionGen) SaveGenState() GenState { return g.sub.SaveGenState() }

// RestoreGenState implements StatefulGenerator.
func (g *regionGen) RestoreGenState(st GenState) error { return g.sub.RestoreGenState(st) }

// defMixGens is mix's default interleave, shared between the registered
// Defaults map and Build's fallback: if the two drifted, Normalize would
// drop one spelling as "the default" while Build constructed the other.
const defMixGens = "stream+gups"

func registerMix() {
	Register("mix", Definition{
		Defaults: map[string]string{
			"seed": "0",
			// gens is a '+'-separated list of registered generator names,
			// each built with its default parameters and a per-slot derived
			// seed; weights (default all 1) sets the interleave ratio;
			// region (default all 0) gives each slot an address-region
			// index — slots sharing an index share a working set, distinct
			// indices are disjoint 1TB-spaced regions (co-running programs).
			"gens":    defMixGens,
			"weights": "",
			"region":  "",
		},
		IntKeys: []string{"seed", "weights", "region"},
		Canonicalize: func(params map[string]string) error {
			// An all-ones weights list is the implicit default for any gens
			// (validation already pinned its length): drop it so
			// "mix:weights=1+1" and "mix" share one canonical form and one
			// cache key. An all-zero region list is the same kind of
			// implicit default.
			allEqual := func(key, def string) {
				raw, ok := params[key]
				if !ok {
					return
				}
				for _, part := range strings.Split(raw, "+") {
					if part != def {
						return
					}
				}
				delete(params, key)
			}
			allEqual("weights", "1")
			allEqual("region", "0")
			return nil
		},
		Validate: func(v Values) error {
			_, _, _, err := parseMix(v)
			return err
		},
		Build: func(seed uint64, v Values) (Generator, error) {
			var err error
			seed = v.Seed(seed, &err)
			if err != nil {
				return nil, err
			}
			names, weights, regions, err := parseMix(v)
			if err != nil {
				return nil, err
			}
			m := &mixGen{rand: rng.New(seed), weights: weights}
			for i, name := range names {
				// Sub-generators get deterministic distinct seeds derived
				// from the mix's own, so two mixed instances of the same
				// generator do not walk in lockstep.
				sub, err := NewGenerator(Spec{Name: name}, seed+uint64(i+1)*1000003)
				if err != nil {
					return nil, fmt.Errorf("gens[%d]: %v", i, err)
				}
				sg, ok := sub.(StatefulGenerator)
				if !ok {
					return nil, fmt.Errorf("gens[%d] %q cannot be checkpointed", i, name)
				}
				if regions[i] > 0 {
					sg = &regionGen{sub: sg, offset: mem.Addr(regions[i]) * regionSpan}
				}
				m.subs = append(m.subs, sg)
			}
			for _, w := range weights {
				m.weightSum += w
			}
			return m, nil
		},
		Help: "weighted interleave of other registered generators (gens=a+b, region=0+1 for disjoint address regions)",
	})
}

// parseMix is the shared parameter step of mix's Build and Validate: the
// gens list resolved and checked against the registry (names must be
// registered, non-mix generators), weights defaulted to all ones and
// bounds-checked, region indices defaulted to all zeros (shared region)
// and bounds-checked. Sub-generator construction itself stays in Build.
func parseMix(v Values) (names []string, weights, regions []int, err error) {
	weights = v.Ints("weights", nil, &err)
	regions = v.Ints("region", nil, &err)
	if err != nil {
		return nil, nil, nil, err
	}
	raw, ok := v["gens"]
	if !ok {
		raw = defMixGens
	}
	names = strings.Split(raw, "+")
	for i, name := range names {
		if name == "mix" {
			return nil, nil, nil, fmt.Errorf("mix cannot nest another mix")
		}
		// Sub-generators run with their default parameters, so each name
		// must normalize as a bare spec — which also rejects registered
		// names that cannot build without parameters ("file" needs a path).
		if _, e := Normalize(Spec{Name: name}); e != nil {
			return nil, nil, nil, fmt.Errorf("gens[%d]: %v", i, e)
		}
	}
	if weights == nil {
		weights = make([]int, len(names))
		for i := range weights {
			weights[i] = 1
		}
	}
	if e := checkWeights(weights, len(names), "gens"); e != nil {
		return nil, nil, nil, e
	}
	if regions == nil {
		regions = make([]int, len(names))
	}
	if len(regions) != len(names) {
		return nil, nil, nil, fmt.Errorf("region lists %d values, gens has %d", len(regions), len(names))
	}
	for i, r := range regions {
		if r < 0 || r > maxRegion {
			return nil, nil, nil, fmt.Errorf("region[%d]=%d out of range 0..%d", i, r, maxRegion)
		}
	}
	return names, weights, regions, nil
}

// registerFile registers the recorded-trace replayer: the spec-form
// spelling of the historical Options.TracePath escape hatch. Locally a
// trace is named by path; on the wire and in cache keys it is named by
// content SHA-256 (see HashSpec), which a worker resolves against its own
// trace directories.
func registerFile() {
	Register("file", Definition{
		Defaults: map[string]string{"path": "", "sha": ""},
		Validate: func(v Values) error {
			path, sha := v["path"], v["sha"]
			if path == "" && sha == "" {
				return fmt.Errorf("need path=FILE (local) or sha=HEX (content-addressed)")
			}
			if path != "" && sha != "" {
				// A claimed sha next to a path would be silently ignored
				// (hashing recomputes from content), so an edited trace
				// could run under a stale pin with no diagnostic. One
				// spelling only: path locally, sha on the wire.
				return fmt.Errorf("path and sha are mutually exclusive (path names local content; sha is the wire/cache identity)")
			}
			return nil
		},
		Build: func(_ uint64, v Values) (Generator, error) {
			path := v["path"]
			if path == "" {
				if sha := v["sha"]; sha != "" {
					return nil, fmt.Errorf("trace %.12s… not available locally (no path parameter; resolve the sha against a local trace directory)", sha)
				}
				return nil, fmt.Errorf("need path=FILE or sha=HEX")
			}
			return OpenTraceFile(path)
		},
		Help: "recorded trace replay (path=FILE locally, sha=HEX on the wire)",
	})
}
