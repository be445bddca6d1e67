package core

import (
	"fmt"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
)

// Spec registration: the Best-Offset prefetcher owns its name, parameter
// schema and validation, so the engine builds it without knowing anything
// beyond prefetch.Spec. Every Table 2 tunable and every ablation/extension
// knob of Params is addressable, e.g. "bo:badscore=5", "bo:rr=64",
// "bo:adaptive=true", "bo:offsets=1+2+8".
func init() {
	def := DefaultParams()
	prefetch.RegisterL2("bo", prefetch.L2Def{
		Help:    "Best-Offset prefetcher (the paper's design, Table 2 defaults)",
		Build:   buildSpec,
		IntKeys: []string{"rr", "tagbits", "scoremax", "roundmax", "badscore", "offsets", "degree", "minbad", "maxbad"},
		Defaults: map[string]string{
			"rr":        fmt.Sprint(def.RREntries),
			"tagbits":   fmt.Sprint(def.RRTagBits),
			"scoremax":  fmt.Sprint(def.ScoreMax),
			"roundmax":  fmt.Sprint(def.RoundMax),
			"badscore":  fmt.Sprint(def.BadScore),
			"offsets":   spec.FormatInts(def.Offsets),
			"degree":    "1",
			"rratissue": "false",
			"allaccess": "false",
			"adaptive":  "false",
			"minbad":    "0",
			"maxbad":    "4",
		},
	})
}

// buildSpec parses and validates bo's spec parameters and constructs the
// prefetcher. Normalize checks by calling it (once per distinct spec), so a
// spec Normalize accepts is always constructible.
func buildSpec(page mem.PageSize, v prefetch.Values) (prefetch.L2Prefetcher, error) {
	p := DefaultParams()
	var err error
	p.RREntries = v.Int("rr", p.RREntries, &err)
	p.RRTagBits = v.Uint("tagbits", p.RRTagBits, &err)
	p.ScoreMax = v.Int("scoremax", p.ScoreMax, &err)
	p.RoundMax = v.Int("roundmax", p.RoundMax, &err)
	p.BadScore = v.Int("badscore", p.BadScore, &err)
	p.Offsets = v.Ints("offsets", p.Offsets, &err)
	p.Degree = v.Int("degree", 1, &err)
	p.InsertRRAtIssue = v.Bool("rratissue", false, &err)
	p.TriggerOnAllAccesses = v.Bool("allaccess", false, &err)
	p.AdaptiveThrottle = v.Bool("adaptive", false, &err)
	p.MinBadScore = v.Int("minbad", 0, &err)
	p.MaxBadScore = v.Int("maxbad", 4, &err)
	if err != nil {
		return nil, err
	}
	if p.RREntries < 1 || p.RREntries&(p.RREntries-1) != 0 {
		return nil, fmt.Errorf("rr=%d must be a positive power of two", p.RREntries)
	}
	if p.RRTagBits < 1 || p.RRTagBits > 16 {
		return nil, fmt.Errorf("tagbits=%d must be in 1..16", p.RRTagBits)
	}
	if p.ScoreMax < 1 || p.RoundMax < 1 {
		return nil, fmt.Errorf("scoremax=%d and roundmax=%d must be >= 1", p.ScoreMax, p.RoundMax)
	}
	if len(p.Offsets) == 0 {
		return nil, fmt.Errorf("offsets must not be empty")
	}
	for _, d := range p.Offsets {
		if d == 0 {
			return nil, fmt.Errorf("offset 0 is meaningless")
		}
	}
	if p.Degree < 1 || p.Degree > 2 {
		return nil, fmt.Errorf("degree=%d must be 1 or 2", p.Degree)
	}
	if p.MinBadScore > p.MaxBadScore {
		return nil, fmt.Errorf("minbad=%d above maxbad=%d", p.MinBadScore, p.MaxBadScore)
	}
	return New(page, p), nil
}
