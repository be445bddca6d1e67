package spec

// NormalizeFresh is Normalize with the memo neither consulted nor written:
// the oracle the memoised path is compared against.
func (r *Registry[B]) NormalizeFresh(s Spec) (Spec, error) {
	return r.normalize(r.grammar.canonical(s))
}

// ForgetNormalized empties the memo, so the next Normalize of every spec —
// a meta-prefetcher's children included — is computed, not recalled.
func (r *Registry[B]) ForgetNormalized() {
	r.mu.Lock()
	defer r.mu.Unlock()
	clear(r.memo)
}

// Remembered reports how many specs the memo holds.
func (r *Registry[B]) Remembered() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.memo)
}

// MemoLimit is the memo's bound.
const MemoLimit = memoLimit
