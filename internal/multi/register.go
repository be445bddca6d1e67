package multi

import (
	"fmt"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
)

// Spec registration: "multi" joined the prefetcher zoo through the registry
// alone — see the package comment.
func init() {
	def := DefaultParams()
	prefetch.RegisterL2("multi", prefetch.L2Def{
		Help:    "multi-offset prefetcher with per-window accuracy gating",
		Build:   buildSpec,
		IntKeys: []string{"offsets", "period", "minscore", "maxissue", "recent"},
		Defaults: map[string]string{
			"offsets":  spec.FormatInts(def.Offsets),
			"period":   fmt.Sprint(def.Period),
			"minscore": fmt.Sprint(def.MinScore),
			"maxissue": fmt.Sprint(def.MaxIssue),
			"recent":   fmt.Sprint(def.Recent),
		},
	})
}

// buildSpec parses and validates multi's spec parameters and constructs the
// prefetcher. Normalize checks by calling it (once per distinct spec), so a
// spec Normalize accepts is always constructible.
func buildSpec(page mem.PageSize, v prefetch.Values) (prefetch.L2Prefetcher, error) {
	p := DefaultParams()
	var err error
	p.Offsets = v.Ints("offsets", p.Offsets, &err)
	p.Period = v.Int("period", p.Period, &err)
	p.MinScore = v.Int("minscore", p.MinScore, &err)
	p.MaxIssue = v.Int("maxissue", p.MaxIssue, &err)
	p.Recent = v.Int("recent", p.Recent, &err)
	if err != nil {
		return nil, err
	}
	if len(p.Offsets) == 0 {
		return nil, fmt.Errorf("offsets must not be empty")
	}
	for _, d := range p.Offsets {
		if d == 0 {
			return nil, fmt.Errorf("offset 0 is meaningless")
		}
	}
	if p.Period < 1 || p.MaxIssue < 1 || p.Recent < 1 {
		return nil, fmt.Errorf("period, maxissue and recent must be >= 1")
	}
	if p.MinScore < 0 {
		return nil, fmt.Errorf("minscore=%d must be >= 0", p.MinScore)
	}
	return New(page, p), nil
}
