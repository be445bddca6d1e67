package trace

import (
	"fmt"
	"math/bits"
	"strconv"

	"bopsim/internal/mem"
	"bopsim/internal/rng"
	"bopsim/internal/spec"
)

// Workload mixes weighted pattern components with ALU filler instructions.
type Workload struct {
	name       string
	memPer1000 int // memory instructions per 1000 instructions
	comps      []weightedComp
	weightSum  int
	rand       *rng.Stream
	aluPC      uint64
}

type weightedComp struct {
	weight int
	comp   component
}

// Name implements Generator.
func (w *Workload) Name() string { return w.name }

// Next implements Generator.
//
//bovet:hotpath
func (w *Workload) Next() Inst {
	if w.rand.Intn(1000) < w.memPer1000 {
		pick := w.rand.Intn(w.weightSum)
		for _, wc := range w.comps {
			pick -= wc.weight
			if pick < 0 {
				return wc.comp.next(w.rand)
			}
		}
	}
	w.aluPC++
	return Inst{Op: OpALU, PC: 0x1000 + (w.aluPC%64)*4}
}

// newMixer assembles a Workload from components, computing the weight sum.
func newMixer(name string, memPer1000 int, comps []weightedComp, seed uint64) *Workload {
	sum := 0
	for _, c := range comps {
		sum += c.weight
	}
	return &Workload{
		name:       name,
		memPer1000: memPer1000,
		comps:      comps,
		weightSum:  sum,
		rand:       rng.New(seed),
	}
}

// scaler rescales a component's region so one footprint parameter can grow
// or shrink a whole benchmark's working set while preserving the ratios
// between its components. The identity scaler reproduces the published
// defaults bit for bit (see the golden determinism suite).
type scaler func(mem.Addr) mem.Addr

func identityScale(a mem.Addr) mem.Addr { return a }

// footprintScale scales regions by want/base, keeping 4KB alignment (every
// default region is 4KB-aligned, so the identity case is exact). The
// multiply runs in 128-bit precision: a huge but syntactically valid
// footprint must scale exactly, not wrap mod 2^64 into a silently wrong
// working set. Every component region satisfies a <= base (base is the
// largest region), so the quotient a*want/base fits uint64 and Div64
// cannot panic.
func footprintScale(want, base mem.Addr) scaler {
	if want == base {
		return identityScale
	}
	return func(a mem.Addr) mem.Addr {
		hi, lo := bits.Mul64(uint64(a), uint64(want))
		n, _ := bits.Div64(hi, lo, uint64(base))
		n &^= 4095
		if n < 4096 {
			n = 4096
		}
		return mem.Addr(n)
	}
}

// benchSpec is the declarative description of one benchmark stand-in.
type benchSpec struct {
	memPer1000 int
	// footprint is the largest component region: the knob the "footprint"
	// parameter rescales (all regions scale proportionally).
	footprint mem.Addr
	build     func(s scaler) []weightedComp
}

const (
	kb = mem.Addr(1) << 10
	mb = mem.Addr(1) << 20
)

// regionBase spreads component address spaces far apart so that distinct
// components never share pages.
func regionBase(i int) mem.Addr { return mem.Addr(1)<<36 + mem.Addr(i)<<30 }

// benchSpecs maps benchmark names to their generators. The memory
// intensities are calibrated so DRAM accesses per kilo-instruction land
// near the paper's Figure 13, and the pattern choices follow the behaviours
// the paper reports: 433-like speedup peaks at offset multiples of 32
// (16-word chunks with 2KB jumps), 459-like peaks near 29.3 lines, 470-like
// peaks at multiples of 5 with 5k+3 secondaries, 462-like long sequential
// streams where only large offsets are timely, 429-like pointer chasing
// over a huge working set, and cache-resident compute for the benchmarks
// Figures 5-6 show as insensitive to L2 prefetching.
var benchSpecs = map[string]benchSpec{
	"400.perlbench": {320, 1 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{3, newRandom(0x4000, 16, regionBase(0), s(512*kb), 25, false)},
			{1, newStream(0x4100, regionBase(1), 8, s(1*mb), 20)},
		}
	}},
	"401.bzip2": {330, 2 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newStream(0x4000, regionBase(0), 8, s(2*mb), 30)},
			{1, newRandom(0x4100, 8, regionBase(1), s(1*mb), 20, false)},
		}
	}},
	"403.gcc": {340, 8 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newStream(0x4000, regionBase(0), 8, s(6*mb), 25)},
			{1, newStream(0x4100, regionBase(1), 8, s(4*mb), 10)},
			{1, newRandom(0x4200, 16, regionBase(2), s(8*mb), 20, false)},
		}
	}},
	"410.bwaves": {350, 48 * mb, func(s scaler) []weightedComp {
		var cs []weightedComp
		for i := 0; i < 5; i++ {
			cs = append(cs, weightedComp{1, newStream(0x4000+uint64(i)*0x100, regionBase(i), 4, s(48*mb), 15)})
		}
		return cs
	}},
	"416.gamess": {250, 128 * kb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newRandom(0x4000, 8, regionBase(0), s(128*kb), 25, false)}}
	}},
	"429.mcf": {220, 384 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newRandom(0x4000, 1, regionBase(0), s(384*mb), 0, true)},
			{2, newRandom(0x4100, 8, regionBase(1), s(1*mb), 20, false)},
			{3, newStream(0x4200, regionBase(2), 8, s(16*mb), 10)},
		}
	}},
	"433.milc": {260, 64 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStripes(0x4000, regionBase(0), 32, 8, s(64*mb), 256, 20)},
		}
	}},
	"434.zeusmp": {200, 12 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newChunk(0x4000, regionBase(0), 8, 128, s(12*mb), 20)},
			{1, newChunk(0x4100, regionBase(1), 8, 128, s(12*mb), 20)},
		}
	}},
	"435.gromacs": {300, 512 * kb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStream(0x4000, regionBase(0), 8, s(512*kb), 20)},
			{1, newRandom(0x4100, 8, regionBase(1), s(256*kb), 20, false)},
		}
	}},
	"436.cactusADM": {200, 12 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newChunk(0x4000, regionBase(0), 8, 192, s(12*mb), 25)},
			{1, newChunk(0x4100, regionBase(1), 8, 192, s(12*mb), 25)},
		}
	}},
	"437.leslie3d": {350, 24 * mb, func(s scaler) []weightedComp {
		var cs []weightedComp
		for i := 0; i < 4; i++ {
			cs = append(cs, weightedComp{1, newStream(0x4000+uint64(i)*0x100, regionBase(i), 8, s(24*mb), 20)})
		}
		return cs
	}},
	"444.namd": {260, 1 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newRandom(0x4000, 8, regionBase(0), s(512*kb), 20, false)},
			{1, newStream(0x4100, regionBase(1), 8, s(1*mb), 15)},
		}
	}},
	"445.gobmk": {300, 1 * mb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newRandom(0x4000, 16, regionBase(0), s(1*mb), 25, false)}}
	}},
	"447.dealII": {340, 4 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newStream(0x4000, regionBase(0), 8, s(4*mb), 20)},
			{1, newRandom(0x4100, 8, regionBase(1), s(2*mb), 20, false)},
		}
	}},
	"450.soplex": {280, 32 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newStream(0x4000, regionBase(0), 8, s(32*mb), 20)},
			{2, newStream(0x4100, regionBase(1), 8, s(32*mb), 20)},
			{1, newRandom(0x4200, 8, regionBase(2), s(16*mb), 15, false)},
		}
	}},
	"453.povray": {250, 256 * kb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newRandom(0x4000, 16, regionBase(0), s(256*kb), 20, false)}}
	}},
	"454.calculix": {300, 2 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStream(0x4000, regionBase(0), 8, s(2*mb), 20)},
			{1, newRandom(0x4100, 8, regionBase(1), s(512*kb), 20, false)},
		}
	}},
	"456.hmmer": {400, 1 * mb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newStream(0x4000, regionBase(0), 4, s(1*mb), 25)}}
	}},
	"458.sjeng": {280, 2 * mb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newRandom(0x4000, 16, regionBase(0), s(2*mb), 25, false)}}
	}},
	"459.GemsFDTD": {200, 48 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStripesPattern(0x4000, regionBase(0), 24, []int64{29, 30, 29}, 8, s(48*mb), 256, 15)},
		}
	}},
	"462.libquantum": {300, 64 * mb, func(s scaler) []weightedComp {
		return []weightedComp{{1, newStream(0x4000, regionBase(0), 4, s(64*mb), 30)}}
	}},
	"464.h264ref": {300, 1 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newStream(0x4000, regionBase(0), 8, s(512*kb), 25)},
			{1, newRandom(0x4100, 16, regionBase(1), s(1*mb), 20, false)},
		}
	}},
	"465.tonto": {280, 8 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newChunk(0x4000, regionBase(0), 8, 512, s(8*mb), 15)},
			{1, newChunk(0x4100, regionBase(1), 8, 512, s(8*mb), 15)},
			{1, newRandom(0x4200, 8, regionBase(2), s(512*kb), 20, false)},
		}
	}},
	"470.lbm": {260, 48 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStripes(0x4000, regionBase(0), 5, 8, s(48*mb), 64, 45)},
		}
	}},
	"471.omnetpp": {320, 16 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newRandom(0x4000, 16, regionBase(0), s(16*mb), 25, false)},
			{1, newStream(0x4100, regionBase(1), 8, s(8*mb), 20)},
		}
	}},
	"473.astar": {300, 8 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newRandom(0x4000, 1, regionBase(0), s(8*mb), 10, true)},
			{1, newRandom(0x4100, 8, regionBase(1), s(4*mb), 20, false)},
		}
	}},
	"481.wrf": {200, 16 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newChunk(0x4000, regionBase(0), 8, 128, s(16*mb), 20)},
			{1, newChunk(0x4100, regionBase(1), 8, 128, s(16*mb), 20)},
		}
	}},
	"482.sphinx3": {330, 8 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{1, newStream(0x4000, regionBase(0), 4, s(8*mb), 10)},
			{1, newStream(0x4100, regionBase(1), 4, s(8*mb), 10)},
			{1, newStream(0x4200, regionBase(2), 4, s(8*mb), 10)},
		}
	}},
	"483.xalancbmk": {320, 4 * mb, func(s scaler) []weightedComp {
		return []weightedComp{
			{2, newRandom(0x4000, 16, regionBase(0), s(4*mb), 20, false)},
			{1, newRandom(0x4100, 1, regionBase(1), s(2*mb), 10, true)},
		}
	}},
}

// init registers every benchmark stand-in through the generator registry,
// so they are ordinary registered generators — parameterized, listable and
// sweepable — rather than a closed table.
func init() {
	for name, bs := range benchSpecs {
		registerBench(name, bs)
	}
}

// registerBench registers one benchmark stand-in with its knobs exposed as
// spec parameters. The defaults reproduce the historical NewWorkload
// streams bit for bit (pinned by the golden determinism suite).
func registerBench(name string, bs benchSpec) {
	// The default weight list comes from the components themselves, so the
	// schema is honest about each benchmark's mix.
	defWeights := make([]int, 0, 4)
	for _, wc := range bs.build(identityScale) {
		defWeights = append(defWeights, wc.weight)
	}
	// parse composes the shared mixer parameter step (mixerPrep, the same
	// parse-and-check the micro-patterns run, so validation rules cannot
	// drift between them) with the benchmarks' extra weights parameter.
	prep := mixerPrep{mp: bs.memPer1000, stride: 8, store: 0, fp: bs.footprint}
	type benchCfg struct {
		mixerCfg
		weights []int
	}
	parse := func(seed uint64, v Values) (benchCfg, error) {
		base, err := prep.parse(seed, v)
		if err != nil {
			return benchCfg{}, err
		}
		var werr error
		weights := v.Ints("weights", defWeights, &werr)
		if werr != nil {
			return benchCfg{}, werr
		}
		if e := checkWeights(weights, len(defWeights), name); e != nil {
			return benchCfg{}, e
		}
		return benchCfg{mixerCfg: base, weights: weights}, nil
	}
	Register(name, Definition{
		Defaults: map[string]string{
			"seed":       "0",
			"memper1000": strconv.Itoa(bs.memPer1000),
			"weights":    spec.FormatInts(defWeights),
			"footprint":  spec.FormatSize(bs.footprint),
		},
		SizeKeys: []string{"footprint"},
		IntKeys:  []string{"seed", "memper1000", "weights"},
		Validate: func(v Values) error {
			_, err := parse(1, v)
			return err
		},
		Build: func(seed uint64, v Values) (Generator, error) {
			c, err := parse(seed, v)
			if err != nil {
				return nil, err
			}
			comps := bs.build(footprintScale(c.fp, bs.footprint))
			for i, w := range c.weights {
				comps[i].weight = w
			}
			return newMixer(name, c.mp, comps, c.seed), nil
		},
		Help: fmt.Sprintf("SPEC CPU2006 stand-in (%d mem/KI, %s footprint)", bs.memPer1000, spec.FormatSize(bs.footprint)),
	})
}

// Benchmarks returns the 29 SPEC CPU2006 stand-in names in the paper's
// order.
func Benchmarks() []string {
	return []string{
		"400.perlbench", "401.bzip2", "403.gcc", "410.bwaves", "416.gamess",
		"429.mcf", "433.milc", "434.zeusmp", "435.gromacs", "436.cactusADM",
		"437.leslie3d", "444.namd", "445.gobmk", "447.dealII", "450.soplex",
		"453.povray", "454.calculix", "456.hmmer", "458.sjeng",
		"459.GemsFDTD", "462.libquantum", "464.h264ref", "465.tonto",
		"470.lbm", "471.omnetpp", "473.astar", "481.wrf", "482.sphinx3",
		"483.xalancbmk",
	}
}

// BenchmarkSpecs returns the 29 stand-ins as bare specs, in the paper's
// order — the default row set of the experiment Runner.
func BenchmarkSpecs() []Spec {
	names := Benchmarks()
	out := make([]Spec, len(names))
	for i, n := range names {
		out[i] = Spec{Name: n}
	}
	return out
}

// NewWorkload builds the named workload generator with the given seed. It
// is the historical entry point, now a thin wrapper over the registry: any
// registered spec name works, not just the benchmark table.
func NewWorkload(name string, seed uint64) (Generator, error) {
	sp, err := ParseSpec(name)
	if err != nil {
		return nil, err
	}
	return NewGenerator(sp, seed)
}

// MustWorkload is NewWorkload that panics on unknown names, for tests and
// examples. Library code paths (the engine, the scheduler) use
// NewGenerator and surface errors instead.
func MustWorkload(name string, seed uint64) StatefulGenerator {
	w, err := NewWorkload(name, seed)
	if err != nil {
		panic(err)
	}
	return w.(StatefulGenerator)
}

// NewThrasher returns the cache-thrashing micro-benchmark of section 5.1
// (registered as "microthrash"): it writes a huge array, going through it
// quickly and sequentially, consuming L3 capacity and memory bandwidth on
// the satellite cores.
func NewThrasher(seed uint64) StatefulGenerator {
	return MustWorkload("microthrash", seed)
}
