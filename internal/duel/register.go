package duel

import (
	"fmt"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

// Spec registration: "duel" joins the zoo through the registry alone, like
// multi did. The candidate specs are themselves registry specs, quoted with
// prefetch.QuoteSubSpec syntax since spec values cannot contain ':', '=' or
// ',' — e.g. "duel:a=bo.degree~2,b=multi.minscore~6,period=4096".
func init() {
	def := DefaultParams()
	prefetch.RegisterL2("duel", prefetch.L2Def{
		Help:         "set-dueling meta-prefetcher: two candidate specs race in sample sets, the winner drives the rest",
		Build:        buildSpec,
		IntKeys:      []string{"period", "margin", "sets", "sample", "recent"},
		Canonicalize: prefetch.CanonicalizeSubSpecs("a", "b"),
		Defaults: map[string]string{
			"a":      "bo",
			"b":      "multi",
			"period": fmt.Sprint(def.Period),
			"margin": fmt.Sprint(def.Margin),
			"sets":   fmt.Sprint(def.Sets),
			"sample": fmt.Sprint(def.Sample),
			"recent": fmt.Sprint(def.Recent),
		},
	})
}

// buildSpec parses and validates duel's spec parameters, builds both
// candidates through the registry, and constructs the meta-prefetcher.
// Normalize checks by calling it (once per distinct spec), so a spec
// Normalize accepts is always constructible.
func buildSpec(page mem.PageSize, v prefetch.Values) (prefetch.L2Prefetcher, error) {
	p := DefaultParams()
	var err error
	p.Period = v.Int("period", p.Period, &err)
	p.Margin = v.Int("margin", p.Margin, &err)
	p.Sets = v.Int("sets", p.Sets, &err)
	p.Sample = v.Int("sample", p.Sample, &err)
	p.Recent = v.Int("recent", p.Recent, &err)
	if err != nil {
		return nil, err
	}
	if p.Period < 1 {
		return nil, fmt.Errorf("period=%d must be >= 1", p.Period)
	}
	if p.Margin < 0 {
		return nil, fmt.Errorf("margin=%d must be >= 0", p.Margin)
	}
	if p.Sample < 2 {
		return nil, fmt.Errorf("sample=%d must be >= 2 (one set partition per candidate)", p.Sample)
	}
	if p.Sets < p.Sample {
		return nil, fmt.Errorf("sets=%d must be >= sample=%d", p.Sets, p.Sample)
	}
	if p.Recent < 1 {
		return nil, fmt.Errorf("recent=%d must be >= 1", p.Recent)
	}
	aRaw, bRaw := "bo", "multi"
	if s, ok := v["a"]; ok {
		aRaw = s
	}
	if s, ok := v["b"]; ok {
		bRaw = s
	}
	aSpec, a, err := BuildCandidate(aRaw, page)
	if err != nil {
		return nil, fmt.Errorf("candidate a: %v", err)
	}
	bSpec, b, err := BuildCandidate(bRaw, page)
	if err != nil {
		return nil, fmt.Errorf("candidate b: %v", err)
	}
	if aSpec.Equal(bSpec) {
		return nil, fmt.Errorf("candidates a and b are both %q: nothing to duel", aSpec)
	}
	return New(p, a, b), nil
}

// BuildCandidate parses a quoted sub-spec and builds the child prefetcher it
// names, enforcing the meta-prefetcher nesting rule: the child must be a
// registered non-meta L2 prefetcher, and a "none" child becomes an explicit
// prefetch.None instance so it can hold a seat. internal/adapt builds its base
// the same way.
func BuildCandidate(raw string, page mem.PageSize) (prefetch.Spec, prefetch.L2Prefetcher, error) {
	sp, err := prefetch.ParseSubSpec(raw)
	if err != nil {
		return prefetch.Spec{}, nil, err
	}
	norm, err := prefetch.NormalizeL2(sp)
	if err != nil {
		return prefetch.Spec{}, nil, err
	}
	pf, err := prefetch.NewL2(norm, page)
	if err != nil {
		return prefetch.Spec{}, nil, err
	}
	if pf == nil {
		pf = prefetch.None{}
	}
	if _, meta := pf.(prefetch.MetaL2); meta {
		return prefetch.Spec{}, nil, fmt.Errorf("%q is a meta-prefetcher: meta-prefetchers cannot nest", norm)
	}
	return norm, pf, nil
}
