package engine_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bopsim/internal/cpu"
	"bopsim/internal/dram"
	"bopsim/internal/engine"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/trace"
	"bopsim/internal/uncore"
)

// machine is what engine.New assembles, with every layer's configuration
// in the open: the liveness matrix and the direction oracle perturb a
// parameter through the layers' own constructors (uncore.New's Config and
// memory, cpu.New's Config, the prefetchers' spec strings), so no
// engine.Options field exists for a test's sake.
type machine struct {
	u         uncore.Config
	d         dram.Params
	c         cpu.Config
	workloads []string // one per core
	l2, l1    string   // prefetcher specs
	n         uint64   // instructions core 0 retires
}

// newMachine is Table 1's machine running workload on core 0 and the
// default satellite on the others.
func newMachine(workload string, cores int, page mem.PageSize, l2, l1 string, n uint64) machine {
	m := machine{u: uncore.DefaultConfig(cores, page), d: dram.DefaultParams(cores), c: cpu.DefaultConfig(),
		workloads: []string{workload}, l2: l2, l1: l1, n: n}
	for len(m.workloads) < cores {
		m.workloads = append(m.workloads, "microthrash")
	}
	return m
}

// outcome is everything a run reports: its cycles and every hierarchy and
// DRAM counter.
type outcome struct {
	cycles uint64
	hier   uncore.Stats
	dram   dram.Stats
}

func (o outcome) String() string { return fmt.Sprintf("%d cycles %+v %+v", o.cycles, o.hier, o.dram) }

// run drives m with the engine's protocol (skip-ahead on) until core 0 has
// retired m.n instructions.
func (m machine) run(t *testing.T) outcome {
	t.Helper()
	page := m.u.Page
	l2, l1 := prefetch.MustSpec(m.l2), prefetch.MustSpec(m.l1)
	if _, err := prefetch.NewL2(l2, page); err != nil {
		t.Fatal(err)
	}
	if _, err := prefetch.NewL1(l1, page); err != nil {
		t.Fatal(err)
	}
	memory := dram.New(m.d)
	hier := uncore.New(m.u,
		func(int) prefetch.L2Prefetcher { p, _ := prefetch.NewL2(l2, page); return p },
		func(int) prefetch.L1Prefetcher { p, _ := prefetch.NewL1(l1, page); return p },
		memory)
	defer hier.Close()
	var cores []*cpu.Core
	for i, w := range m.workloads {
		gen, err := trace.NewGenerator(trace.MustSpec(w), 1+uint64(i)*7919) // engine.New's seeds
		if err != nil {
			t.Fatal(err)
		}
		cores = append(cores, cpu.New(i, m.c, hier, gen))
	}
	const never = ^uint64(0)
	limit := m.n * 400
	var now uint64
	for cores[0].Retired < m.n {
		if now >= limit {
			t.Fatalf("wedged after %d cycles", now)
		}
		ne := never
		for _, c := range cores {
			if ne = min(ne, c.NextEvent(now)); ne <= now {
				break
			}
		}
		if ne > now {
			ne = min(ne, hier.NextEvent(now))
		}
		if ne > now && ne != never {
			hier.AccountIdle(ne - now)
			now = ne
			continue
		}
		for _, c := range cores {
			c.Cycle(now)
		}
		hier.Tick(now)
		now++
	}
	return outcome{cycles: now, hier: hier.Stats(), dram: memory.TotalStats()}
}

// liveRows is the matrix's fixed suite: short rows that between them read
// every live parameter, tried in order until one moves. The 4-core row is
// the one that reaches urgent mode and fills the L3 fill queue, and the store
// stream the one whose dirty lines reach DRAM; the last four run long enough
// for BO and SBP to end their learning phases.
var liveRows = []struct {
	name string
	m    machine
}{
	{"mcf-stride-bo-1core-4KB", newMachine("429.mcf", 1, mem.Page4K, "bo", "stride", 20_000)},
	{"mcf-stride-bo-4core-4KB", newMachine("429.mcf", 4, mem.Page4K, "bo", "stride", 10_000)},
	{"stores-writeback-1MB-L3-1core-4KB", writeBack},
	{"gups-none-bo-1core-4MB", newMachine("gups", 1, mem.Page4M, "bo", "none", 40_000)},
	{"stream-none-bo-1core-4MB", newMachine("stream:memper1000=300,footprint=64mb", 1, mem.Page4M, "bo", "none", 40_000)},
	{"mix-none-sbp-1core-4MB", newMachine("mix:gens=stream+gups", 1, mem.Page4M, "sbp", "none", 40_000)},
	{"gups-none-sbp-1core-4MB", newMachine("gups", 1, mem.Page4M, "sbp", "none", 40_000)},
}

// writeBack is a store stream on a 1MB L3: its dirty lines reach DRAM after
// about 30,000 instructions, where Table 1's 8MB L3 takes 155,000.
var writeBack = func() machine {
	m := newMachine("stream:storepct=100,memper1000=900,footprint=64mb", 1, mem.Page4K, "nextline", "stride", 40_000)
	m.u.L3Size = 1 << 20
	return m
}()

// move is a perturbation that is not one field set to a value.
type move struct {
	what  string
	apply func(*machine)
}

func (m move) String() string { return m.what }

// addCore moves the core count, one value that the uncore, the DRAM and
// the number of cores hold together: one layer's copy alone only resizes
// its per-core counters.
var addCore = move{"one core more", func(m *machine) {
	m.u.NumCores++
	m.d.NumCores++
	m.workloads = append(m.workloads, "microthrash")
}}

// otherPage swaps the 4KB and 4MB pages.
var otherPage = move{"the other page size", func(m *machine) { m.u.Page = mem.Page4K + mem.Page4M - m.u.Page }}

// perturbations moves each parameter off its default: most by one step, a
// cache by half its size or ways, an offset list to its first few offsets.
// Where one step moves no row the value is one measured to move one:
// ReadQueueLen 4, WriteQueueLen 2 and WriteBatch 2 (slack at Table 1's 32,
// 32 and 16), bo's tagbits 8 (11 moves nothing), and sbp's bits 256 and
// cutoffs 16, 700 and 640 (one step moves none). cutoff1 moves a row only
// below SBP's false-positive floor on gups: at the defaults the offsets
// above cutoff2 fill maxissue first. A struct field takes a number, a
// schema parameter a spec value, and the core count and the page size a
// move.
var perturbations = map[string]any{
	"dram.BusRatio":        5,
	"dram.TCL":             12,
	"dram.TRCD":            12,
	"dram.TRP":             12,
	"dram.TRAS":            34,
	"dram.TCWL":            9,
	"dram.TRTP":            7,
	"dram.TWR":             13,
	"dram.TWTR":            7,
	"dram.TBURST":          5,
	"dram.ReadQueueLen":    4,
	"dram.WriteQueueLen":   2,
	"dram.WriteBatch":      2,
	"dram.ExtraLatency":    61,
	"dram.NumCores":        addCore,
	"dram.UrgentThreshold": 30,

	"uncore.NumCores":         addCore,
	"uncore.Page":             otherPage,
	"uncore.DL1Size":          16 << 10,
	"uncore.DL1Ways":          4,
	"uncore.L2Size":           256 << 10,
	"uncore.L2Ways":           4,
	"uncore.L3Size":           4 << 20,
	"uncore.L3Ways":           8,
	"uncore.DL1Latency":       4,
	"uncore.L2Latency":        12,
	"uncore.L3Latency":        22,
	"uncore.L2FillQueueLen":   15,
	"uncore.L3FillQueueLen":   31,
	"uncore.PrefetchQueueLen": 7,
	"uncore.MSHRs":            31,
	"uncore.Seed":             2,

	"cpu.DispatchWidth": 3,
	"cpu.RetireWidth":   3,
	"cpu.ROBSize":       255,
	"cpu.ALULatency":    2,

	"bo.rr":       "128",
	"bo.tagbits":  "8",
	"bo.scoremax": "30",
	"bo.roundmax": "99",
	"bo.badscore": "2",
	"bo.offsets":  "1+2+3+4+5+6+8",
	"bo.degree":   "2",
	"bo.minbad":   "1",
	"bo.maxbad":   "5",

	"sbp.period":   "255",
	"sbp.bits":     "256",
	"sbp.hashes":   "2",
	"sbp.maxissue": "7",
	"sbp.cutoff1":  "16",
	"sbp.cutoff2":  "700",
	"sbp.cutoff3":  "640",
	"sbp.offsets":  "1+2+3+4",

	"stride.dist": "15",
}

// inert is every parameter the matrix finds moving nothing, each with the
// reason and the ROADMAP item that owns it.
var inert = map[string]string{
	"dram.TWTR": "nothing reads the write-to-read turnaround (item 18)",
	"bo.minbad": "read only under adaptive=true (item 10)",
	"bo.maxbad": "read only under adaptive=true (item 10)",
}

// parameters walks, by reflection, every numeric field of the three layer
// configurations and every numeric schema parameter of bo, sbp and stride.
func parameters(t *testing.T) []string {
	var names []string
	for _, cfg := range []any{dram.Params{}, uncore.Config{}, cpu.Config{}} {
		typ := reflect.TypeOf(cfg)
		pkg := typ.PkgPath()[strings.LastIndex(typ.PkgPath(), "/")+1:]
		for i := range typ.NumField() {
			if k := typ.Field(i).Type.Kind(); k >= reflect.Int && k <= reflect.Float64 {
				names = append(names, pkg+"."+typ.Field(i).Name)
			}
		}
	}
	l2 := func(name string) []string {
		def, _, err := prefetch.L2.Lookup(prefetch.Spec{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		return def.IntKeys
	}
	stride, _, err := prefetch.L1.Lookup(prefetch.Spec{Name: "stride"})
	if err != nil {
		t.Fatal(err)
	}
	for pf, keys := range map[string][]string{"bo": l2("bo"), "sbp": l2("sbp"), "stride": stride.IntKeys} {
		for _, k := range keys {
			names = append(names, pf+"."+k)
		}
	}
	slices.Sort(names)
	return names
}

// perturbed returns m with parameter name moved to v, and whether the row
// has that parameter at all (a schema parameter only on a row that runs its
// prefetcher).
func (m machine) perturbed(t *testing.T, name string, v any) (machine, bool) {
	m.workloads = slices.Clone(m.workloads)
	if mv, ok := v.(move); ok {
		mv.apply(&m)
		return m, true
	}
	layer, field, _ := strings.Cut(name, ".")
	if s, ok := v.(string); ok {
		for _, pf := range []*string{&m.l2, &m.l1} {
			if sp := prefetch.MustSpec(*pf); sp.Name == layer {
				*pf = sp.With(field, s).String()
				return m, true
			}
		}
		return m, false
	}
	f := map[string]reflect.Value{"dram": reflect.ValueOf(&m.d), "uncore": reflect.ValueOf(&m.u), "cpu": reflect.ValueOf(&m.c)}[layer].
		Elem().FieldByName(field)
	was := fmt.Sprint(f)
	switch n := v.(int); {
	case f.CanInt():
		f.SetInt(int64(n))
	case f.CanUint():
		f.SetUint(uint64(n))
	default:
		f.SetFloat(float64(n))
	}
	if fmt.Sprint(f) == was {
		t.Fatalf("%s: the perturbation %v is the default", name, v)
	}
	return m, true
}

// TestParametersLive is the liveness matrix (ROADMAP item 28, step 1): every
// numeric parameter of the machine and of the bo, sbp and stride schemas is
// moved off its default, and some row of liveRows must then report other
// cycles or another hierarchy or DRAM counter. A parameter that moves no row
// is dead; the ones known dead are listed in inert with the item that owns
// them, and the list is asserted exactly, so a parameter that dies or comes
// back fails by name. Perturbations go through the layers' constructors only
// (machine), never an engine.Options field.
func TestParametersLive(t *testing.T) {
	names := parameters(t)
	base := make([]string, len(liveRows))
	for i, r := range liveRows {
		base[i] = r.m.run(t).String()
	}
	// The harness must build what engine.New builds: the first row, run by
	// the engine, ends on the same counts.
	o := engine.DefaultOptions("429.mcf")
	o.L2PF, o.Instructions = prefetch.MustSpec("bo"), liveRows[0].m.n
	if r := runStraight(t, o); (outcome{r.Cycles, r.Hier, r.DRAM}).String() != base[0] {
		t.Fatalf("%s: the harness and engine.New disagree\nharness %s\nengine  %s", liveRows[0].name, base[0], outcome{r.Cycles, r.Hier, r.DRAM})
	}
	for _, name := range names {
		v, ok := perturbations[name]
		if !ok {
			t.Errorf("%s has no perturbation: give it one, or nothing checks that it is read", name)
			continue
		}
		moved := ""
		for i, r := range liveRows {
			if m, ok := r.m.perturbed(t, name, v); ok && m.run(t).String() != base[i] {
				moved = r.name
				break
			}
		}
		switch reason, known := inert[name]; {
		case moved == "" && !known:
			t.Errorf("%s moves no row at %v: it is dead, or the suite no longer reads it", name, v)
		case moved != "" && known:
			t.Errorf("%s moves %s at %v, but inert lists it (%s): strike it from the list", name, moved, v, reason)
		case moved != "":
			t.Logf("%-24s %-20v moves %s", name, v, moved)
		}
	}
	for name := range perturbations {
		if !slices.Contains(names, name) {
			t.Errorf("perturbations lists %s, which is no parameter", name)
		}
	}
	for name := range inert {
		if !slices.Contains(names, name) {
			t.Errorf("inert lists %s, which is no parameter", name)
		}
	}
}

// TestLatencyDirection is the direction oracle (ROADMAP item 28, step 2),
// the one check here that is not self-relative: on a serialized pointer
// chase with no prefetchers every access waits for the one before it, so a
// latency added on the path must come back, cycle for cycle, as run time.
// Each row adds one latency and names the accesses it applies to: tCL and
// ExtraLatency every DRAM read, tRCD every read that opens a row, tRP a row
// conflict only, and the L2 and L3 latencies a hit in that cache (a miss
// goes on to the next level in the cycle it is looked up, so a DRAM read
// pays neither).
//
// The tolerance. Latencies of whole bus cycles come back exactly (every
// ratio reads 1.0000, seed 1), so those rows allow 1 %. ExtraLatency is
// added in whole bus cycles for that reason: +10 core cycles reads as +12
// per read, because the next read then waits for its bus-cycle boundary. A
// longer bus cycle also lengthens that wait, by about one core cycle per
// read (+2.7 % over the bus cycles a read spends in DRAM), so BusRatio
// allows 5 %.
func TestLatencyDirection(t *testing.T) {
	chase := newMachine("pchase:memper1000=1000", 1, mem.Page4M, "none", "none", 20_000)
	base := chase.run(t)
	p := chase.d
	bus := uint64(p.BusRatio)
	opened := func(o outcome) uint64 { return o.dram.RowClosed + o.dram.RowConflicts }
	for _, row := range []struct {
		name    string
		perturb func(*machine)
		// added is what the perturbation adds to the run, in core cycles:
		// its latency times the accesses it applies to.
		added func(o outcome) uint64
		tol   float64
	}{
		{"TCL", func(m *machine) { m.d.TCL++ }, func(o outcome) uint64 { return o.dram.Reads * bus }, 0.01},
		{"TRCD", func(m *machine) { m.d.TRCD++ }, func(o outcome) uint64 { return opened(o) * bus }, 0.01},
		{"TRP", func(m *machine) { m.d.TRP++ }, func(o outcome) uint64 { return o.dram.RowConflicts * bus }, 0.01},
		{"ExtraLatency", func(m *machine) { m.d.ExtraLatency += 2 * bus }, func(o outcome) uint64 { return o.dram.Reads * 2 * bus }, 0.01},
		{"BusRatio", func(m *machine) { m.d.BusRatio++ }, func(o outcome) uint64 {
			// One core cycle more for every bus cycle a read spends in DRAM.
			return o.dram.Reads*uint64(p.TCL+p.TBURST) + opened(o)*uint64(p.TRCD) + o.dram.RowConflicts*uint64(p.TRP)
		}, 0.05},
		{"L2Latency", func(m *machine) { m.u.L2Latency += 8 }, func(o outcome) uint64 { return o.hier.L2Hits * 8 }, 0.01},
		{"L3Latency", func(m *machine) { m.u.L3Latency += 8 }, func(o outcome) uint64 { return o.hier.L3Hits * 8 }, 0.01},
	} {
		m := chase
		row.perturb(&m)
		got := m.run(t)
		rise, added := float64(got.cycles)-float64(base.cycles), float64(row.added(got))
		t.Logf("%-12s %d -> %d cycles: +%.0f for %.0f added (%.4f)", row.name, base.cycles, got.cycles, rise, added, rise/added)
		if rise <= 0 || added <= 0 || rise < added*(1-row.tol) || rise > added*(1+row.tol) {
			t.Errorf("%s: cycles %d -> %d, a rise of %.0f, for %.0f cycles of latency added: want the rise within %.0f %% of it",
				row.name, base.cycles, got.cycles, rise, added, 100*row.tol)
		}
	}
}
