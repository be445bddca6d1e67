package prefetch

import (
	"fmt"

	"bopsim/internal/mem"
)

// The two trivial L2 prefetchers implemented by this package register
// themselves here; the "none" spellings for both slots live here too.
// Richer prefetchers (bo, sbp, multi, stride) register from their own
// packages — see internal/prefetch/all for the link-time bundle.
//
// Every definition spells out Defaults (the parameter schema; empty means
// "accepts no parameters" — the registry refuses a nil one). None sets
// Validate: nothing here reads anything but its parameters, so Normalize
// checks by building — once per distinct spec per process, after which the
// canonical form is recalled (spec.Registry.Normalize).

func init() {
	RegisterL2("none", L2Def{
		Help:     "no L2 prefetching (Figure 5's ablation)",
		Defaults: map[string]string{},
		Build:    buildNoneL2,
	})
	RegisterL2("nextline", L2Def{
		Help:     "baseline next-line prefetcher (offset 1, section 5.6)",
		Defaults: map[string]string{},
		Build:    buildNextLine,
	})
	RegisterL2("offset", L2Def{
		Help:     "fixed-offset prefetcher: X -> X+d (Figures 7 and 8)",
		Defaults: map[string]string{"d": "1"},
		IntKeys:  []string{"d"},
		Build:    buildOffset,
	})
	RegisterL1("none", L1Def{
		Help:     "no DL1 prefetching (Figure 4's ablation)",
		Defaults: map[string]string{},
		Build:    buildNoneL1,
	})
}

func buildNoneL2(mem.PageSize, Values) (L2Prefetcher, error) {
	return None{}, nil
}

func buildNextLine(page mem.PageSize, _ Values) (L2Prefetcher, error) {
	return NewNextLine(page), nil
}

func buildOffset(page mem.PageSize, v Values) (L2Prefetcher, error) {
	var err error
	d := v.Int("d", 1, &err)
	if err != nil {
		return nil, err
	}
	if d < 1 {
		return nil, fmt.Errorf("offset d=%d must be >= 1", d)
	}
	return NewFixedOffset(page, d), nil
}

func buildNoneL1(mem.PageSize, Values) (L1Prefetcher, error) {
	return nil, nil
}
