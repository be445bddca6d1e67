package sbp

import (
	"fmt"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
	"bopsim/internal/spec"
)

// PreIssueTagCheck implements prefetch.PreIssueTagChecker: the paper adds
// an extra L2 tag lookup before issuing SBP's degree-N request streams
// (section 6.3).
func (p *Prefetcher) PreIssueTagCheck() bool { return true }

var _ prefetch.PreIssueTagChecker = (*Prefetcher)(nil)

// Spec registration: "sbp" with the section 6.3 defaults. Every parameter
// default — including the degree cutoffs — is a fixed value, never derived
// from another parameter: the registry's Normalize drops parameters
// spelled with their default, so a derived default would silently rewrite
// explicit settings (e.g. "period=128,cutoff1=256" must not normalize to
// "period=128"). Callers shrinking the period below the default should
// therefore spell the cutoffs they want.
func init() {
	def := DefaultParams()
	prefetch.RegisterL2("sbp", prefetch.L2Def{
		Help:    "Sandbox prefetcher (Pugsley et al.) as adapted in section 6.3",
		Build:   buildSpec,
		IntKeys: []string{"period", "bits", "hashes", "maxissue", "cutoff1", "cutoff2", "cutoff3", "offsets"},
		Defaults: map[string]string{
			"period":   fmt.Sprint(def.Period),
			"bits":     fmt.Sprint(def.BloomBits),
			"hashes":   fmt.Sprint(def.BloomHash),
			"maxissue": fmt.Sprint(def.MaxIssue),
			"cutoff1":  fmt.Sprint(def.Cutoff1),
			"cutoff2":  fmt.Sprint(def.Cutoff2),
			"cutoff3":  fmt.Sprint(def.Cutoff3),
			"offsets":  spec.FormatInts(def.Offsets),
		},
	})
}

// buildSpec parses and validates sbp's spec parameters and constructs the
// prefetcher. Normalize checks by calling it (once per distinct spec), so a
// spec Normalize accepts is always constructible.
func buildSpec(page mem.PageSize, v prefetch.Values) (prefetch.L2Prefetcher, error) {
	p := DefaultParams()
	var err error
	p.Period = v.Int("period", p.Period, &err)
	bits := v.Int("bits", int(p.BloomBits), &err)
	p.BloomHash = v.Int("hashes", p.BloomHash, &err)
	p.MaxIssue = v.Int("maxissue", p.MaxIssue, &err)
	p.Cutoff1 = v.Int("cutoff1", p.Cutoff1, &err)
	p.Cutoff2 = v.Int("cutoff2", p.Cutoff2, &err)
	p.Cutoff3 = v.Int("cutoff3", p.Cutoff3, &err)
	p.Offsets = v.Ints("offsets", p.Offsets, &err)
	if err != nil {
		return nil, err
	}
	if bits < 1 || bits&(bits-1) != 0 {
		return nil, fmt.Errorf("bits=%d must be a positive power of two", bits)
	}
	p.BloomBits = uint64(bits)
	if p.Period < 1 || p.BloomHash < 1 || p.MaxIssue < 1 {
		return nil, fmt.Errorf("period, hashes and maxissue must be >= 1")
	}
	if len(p.Offsets) == 0 {
		return nil, fmt.Errorf("offsets must not be empty")
	}
	return New(page, p), nil
}
