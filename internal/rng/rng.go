// Package rng provides a tiny deterministic pseudo-random stream
// (splitmix64). The simulator must be fully reproducible, so every component
// that needs randomness (BIP insertion, BRRIP, workload generators) owns its
// own seeded stream rather than sharing global state.
package rng

// Stream is a splitmix64 pseudo-random number generator. The zero value is a
// valid stream seeded with 0.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream { return &Stream{state: seed} }

// Uint64 returns the next 64-bit value.
func (s *Stream) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value uniform in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// OneIn reports true with probability 1/n.
func (s *Stream) OneIn(n int) bool { return s.Intn(n) == 0 }

// State returns the stream's internal state, for checkpointing. A stream
// restored with SetState produces exactly the sequence the original would
// have produced from this point on.
func (s *Stream) State() uint64 { return s.state }

// SetState replaces the stream's internal state with a previously saved one.
func (s *Stream) SetState(state uint64) { s.state = state }
