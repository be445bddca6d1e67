// Package cache is a synthetic fixture for the statecodec analyzer covering
// each classification: serialized state, forgotten state, immutable
// configuration, exempt wiring, an annotated exception, and state mutated
// only through a pointer-receiver method called on a value field.
package cache

// Counter checkpoints hits but forgets misses.
type Counter struct {
	limit  int // never mutated: configuration, no finding
	hits   int
	misses int // want `Counter\.misses is mutated by methods but never touched by SaveState/RestoreState`
	//bovet:allow statecodec fixture: scratch is rebuilt on every call, never carried across a checkpoint
	scratch []byte
	onEvict func() // func-typed fields are wiring, exempt
}

// Observe mutates hits, misses and scratch.
func (c *Counter) Observe(hit bool) {
	if hit {
		c.hits++
	} else {
		c.misses++
	}
	c.scratch = c.scratch[:0]
	if c.onEvict != nil && c.hits > c.limit {
		c.onEvict()
	}
}

// SaveState serializes hits only.
func (c *Counter) SaveState() ([]byte, error) {
	return []byte{byte(c.hits)}, nil
}

// RestoreState restores hits only.
func (c *Counter) RestoreState(b []byte) error {
	c.hits = int(b[0])
	return nil
}

// Meter proves transitive reference tracking: the codec touches its fields
// only through the encode helper, which must count as referenced.
type Meter struct {
	total uint64
	rate  uint64
}

// Tick mutates both fields.
func (m *Meter) Tick() {
	m.total++
	m.rate++
}

// SaveState delegates to a same-package helper.
func (m *Meter) SaveState() ([]byte, error) { return m.encode(), nil }

func (m *Meter) encode() []byte { return []byte{byte(m.total), byte(m.rate)} }

// RestoreState restores both fields directly.
func (m *Meter) RestoreState(b []byte) error {
	m.total = uint64(b[0])
	m.rate = uint64(b[1])
	return nil
}

// Plain has mutable fields but no codec methods: out of scope, no findings.
type Plain struct {
	n int
}

// Bump mutates n.
func (p *Plain) Bump() { p.n++ }

// tally is a value-typed helper: add changes it through a pointer receiver,
// total only reads it.
type tally struct{ n int }

func (t *tally) add()      { t.n++ }
func (t tally) total() int { return t.n }

// Window mutates its tallies only by calling add on them: on a value field
// the call takes the field's address, so seen is mutable state the codec
// forgets. A value-receiver call (limit) mutates nothing, and a call through
// a pointer field (shared) changes the pointee, not the field.
type Window struct {
	seen   tally // want `Window\.seen is mutated by methods but never touched by SaveState/RestoreState`
	kept   tally
	limit  tally
	shared *tally
}

// Observe mutates seen and kept, and what shared points to.
func (w *Window) Observe() {
	if w.seen.total() < w.limit.total() {
		w.seen.add()
	}
	w.kept.add()
	w.shared.add()
}

// SaveState serializes kept only.
func (w *Window) SaveState() ([]byte, error) { return []byte{byte(w.kept.n)}, nil }

// RestoreState restores kept only.
func (w *Window) RestoreState(b []byte) error {
	w.kept.n = int(b[0])
	return nil
}
