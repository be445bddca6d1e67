package uncore

import (
	"strings"
	"testing"

	"bopsim/internal/cache"
	"bopsim/internal/mem"
)

// TestRestoreRejectsForeignOwnerCore checks that a state whose packed line
// names an owner core the hierarchy does not have is refused at every cache
// level: the owner indexes per-core structures downstream, so accepting it
// would panic mid-run.
func TestRestoreRejectsForeignOwnerCore(t *testing.T) {
	saved, err := New(DefaultConfig(1, mem.Page4K), nil, nil, nil).SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// One valid clean line at index 0, address 0x40 (cache.State.Lines); only
	// the owner differs between the accepted and the refused record.
	line := func(core byte) []byte { return []byte{1, 0x40, 0, core} }
	levels := map[string]func(*State) *cache.State{
		"DL1": func(st *State) *cache.State { return &st.DL1[0] },
		"L2":  func(st *State) *cache.State { return &st.L2[0] },
		"L3":  func(st *State) *cache.State { return &st.L3 },
	}
	for name, level := range levels {
		for core, wantOK := range map[byte]bool{0: true, 1: false} {
			st := saved
			st.DL1 = append([]cache.State(nil), saved.DL1...)
			st.L2 = append([]cache.State(nil), saved.L2...)
			level(&st).Lines = line(core)
			err := New(DefaultConfig(1, mem.Page4K), nil, nil, nil).RestoreState(st)
			switch {
			case wantOK && err != nil:
				t.Errorf("%s line owned by core %d refused: %v", name, core, err)
			case !wantOK && err == nil:
				t.Errorf("%s line owned by core %d accepted by a 1-core hierarchy", name, core)
			case !wantOK && !strings.Contains(err.Error(), "owned by core 1"):
				t.Errorf("%s line owned by core %d refused for another reason: %v", name, core, err)
			}
		}
	}
}
