// Package trace defines the instruction stream format consumed by the core
// model and the workload generators that produce it. Generators are
// configured through Spec and a registry (spec.go binds internal/spec, the
// grammar and registry shared with internal/prefetch): the SPEC CPU2006
// stand-ins (see DESIGN.md for the substitution rationale), parameterized
// micro-patterns (stream, pchase, gups, the mix combinator, the
// microthrash satellite workload) and recorded-trace replay ("file") are
// all registered generators, so opening a new workload is a registration,
// not an engine edit. Each generator is an infinite, deterministic
// instruction stream whose memory behaviour models one access-pattern
// regime: long sequential streams, constant-stride streams with the
// periods reported in Figure 8, interleaved streams, pointer chasing, or
// cache-resident compute.
package trace

import "bopsim/internal/mem"

// Op is an instruction class.
type Op uint8

// Instruction classes. The timing model only distinguishes ALU work from
// loads and stores.
const (
	OpALU Op = iota
	OpLoad
	OpStore
)

// Inst is one dynamic instruction.
type Inst struct {
	Op Op
	// PC identifies the static instruction; the DL1 stride prefetcher
	// indexes its table with it.
	PC uint64
	// VA is the virtual byte address accessed (loads/stores only).
	VA mem.Addr
	// DepPrevLoad marks a load whose address depends on the data of the
	// most recent preceding load (pointer chasing): the core cannot issue
	// it before that load completes.
	DepPrevLoad bool
}

// Generator produces an infinite instruction stream. Generators are not
// safe for concurrent use; every simulated core owns its own.
type Generator interface {
	// Name identifies the workload (e.g. "429.mcf").
	Name() string
	// Next returns the next dynamic instruction.
	Next() Inst
}
