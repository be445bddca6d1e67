package core

// This file implements the extensions the paper discusses but does not
// evaluate, clearly separated from the evaluated design in bo.go:
//
//   - negative offsets (section 4.2: "Nothing prevents a BO prefetcher to
//     use negative offset values"),
//   - degree-two prefetching with the best and second-best offsets
//     (section 4.3),
//   - dynamic adjustment of the throttling threshold (section 7, future
//     work).
//
// All three are off by default; DefaultParams matches the evaluated
// configuration exactly.

// WithNegativeOffsets returns offsets extended with the negation of every
// entry (sorted: all positives in original order, then negatives). The BO
// learning machinery handles negative candidates transparently.
func WithNegativeOffsets(offsets []int) []int {
	out := make([]int, 0, 2*len(offsets))
	out = append(out, offsets...)
	for _, d := range offsets {
		out = append(out, -d)
	}
	return out
}

// secondBestIdx returns the index of the best-scoring offset distinct from
// bestIdx (or -1 when there is none with a positive score).
func (p *Prefetcher) secondBestIdx() int {
	best := -1
	for i, s := range p.scores {
		if i == p.bestIdx || s == 0 {
			continue
		}
		if best < 0 || s > p.scores[best] {
			best = i
		}
	}
	return best
}

// updateAdaptiveThrottle adjusts the effective BADSCORE after a phase with
// the given best score ("bo:adaptive=true"). BADSCORE floats between
// MinBadScore and MaxBadScore, steered by an exponentially weighted average
// of phase best scores: applications whose phases consistently score high
// get a stricter threshold, while applications hovering near the threshold
// get a lenient one (avoiding the 429.mcf pathology of Figure 9, where
// aggressive throttling hurts).
func (p *Prefetcher) updateAdaptiveThrottle(bestScore int) {
	// EWMA with factor 1/4, in fixed point (x16).
	p.scoreEWMA += (bestScore*16 - p.scoreEWMA) / 4
	dyn := p.scoreEWMA / (16 * 8) // threshold at 1/8 of the typical best
	if dyn < p.params.MinBadScore {
		dyn = p.params.MinBadScore
	}
	if dyn > p.params.MaxBadScore {
		dyn = p.params.MaxBadScore
	}
	p.dynBadScore = dyn
}
