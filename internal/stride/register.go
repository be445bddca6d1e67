package stride

import (
	"fmt"

	"bopsim/internal/mem"
	"bopsim/internal/prefetch"
)

var _ prefetch.L1Prefetcher = (*Prefetcher)(nil)

// Spec registration: "stride" is the baseline DL1 prefetcher of section
// 5.5. The prefetch distance factor is the one exposed tunable
// ("stride:dist=8"); the table geometry is architectural and fixed.
func init() {
	prefetch.RegisterL1("stride", prefetch.L1Def{
		Help:    "DL1 stride prefetcher, PC-indexed, TLB2-gated (section 5.5)",
		Build:   buildSpec,
		IntKeys: []string{"dist"},
		Defaults: map[string]string{
			"dist": fmt.Sprint(DistanceFactor),
		},
	})
}

// buildSpec parses and validates stride's spec parameters and constructs
// the prefetcher. Normalize checks by calling it (once per distinct spec),
// so a spec Normalize accepts is always constructible.
func buildSpec(_ mem.PageSize, v prefetch.Values) (prefetch.L1Prefetcher, error) {
	var err error
	dist := v.Int("dist", DistanceFactor, &err)
	if err != nil {
		return nil, err
	}
	if dist < 1 {
		return nil, fmt.Errorf("dist=%d must be >= 1", dist)
	}
	return NewWithDistance(dist), nil
}
