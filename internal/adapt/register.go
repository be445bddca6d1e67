package adapt

import (
	"fmt"
	"strings"

	"bopsim/internal/duel"
	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Spec registration. The base spec is a registry spec quoted with
// prefetch.QuoteSubSpec syntax, e.g. "adapt:base=bo.rr~64,window=8192"; a
// custom ladder is a single retunable key plus its '+'-separated level
// values, e.g. "adapt:base=multi,key=minscore,levels=48+24+12+6".
func init() {
	def := DefaultParams()
	prefetch.RegisterL2("adapt", prefetch.L2Def{
		Help:         "phase-adaptive wrapper: retunes the base spec's params per accuracy window",
		Build:        buildSpec,
		IntKeys:      []string{"window", "lo", "hi", "minfills", "recent"},
		Canonicalize: prefetch.CanonicalizeSubSpecs("base"),
		Defaults: map[string]string{
			"base":     "bo",
			"window":   fmt.Sprint(def.Window),
			"lo":       fmt.Sprint(def.Lo),
			"hi":       fmt.Sprint(def.Hi),
			"minfills": fmt.Sprint(def.MinFills),
			"recent":   fmt.Sprint(def.Recent),
			"key":      "none",
			"levels":   "none",
		},
	})
}

// buildSpec parses and validates adapt's spec parameters, builds the base
// through the registry (same candidate rules as duel), and constructs the
// wrapper; Normalize checks by calling it.
func buildSpec(page mem.PageSize, v prefetch.Values) (prefetch.L2Prefetcher, error) {
	p := DefaultParams()
	var err error
	p.Window = v.Int("window", p.Window, &err)
	p.Lo = v.Int("lo", p.Lo, &err)
	p.Hi = v.Int("hi", p.Hi, &err)
	p.MinFills = v.Int("minfills", p.MinFills, &err)
	p.Recent = v.Int("recent", p.Recent, &err)
	if err != nil {
		return nil, err
	}
	if key, ok := v["key"]; ok && key != "none" {
		p.Key = key
	}
	if levels, ok := v["levels"]; ok && levels != "none" {
		p.Levels = strings.Split(levels, "+")
	}
	if (p.Key == "") != (len(p.Levels) == 0) {
		return nil, fmt.Errorf("key= and levels= define a custom ladder together; set both or neither")
	}
	baseRaw := "bo"
	if s, ok := v["base"]; ok {
		baseRaw = s
	}
	baseSpec, base, err := duel.BuildCandidate(baseRaw, page)
	if err != nil {
		return nil, fmt.Errorf("base: %v", err)
	}
	p.Base = baseSpec
	return New(p, base)
}
