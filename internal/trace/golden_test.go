package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// The golden determinism suite: every registered workload generator's
// default instruction stream is pinned by the SHA-256 of its first 10k
// instructions, so a generator refactor (or an innocent-looking parameter
// plumbing change) can never silently shift the streams behind published
// figures. The 29 SPEC stand-ins' hashes were captured from the
// pre-registry benchmark table, proving the registry migration
// byte-exact; if a hash change is intentional, it is a simulator behaviour
// change and must come with an engine.ModelVersion bump (see
// internal/engine/engine.go) and a re-pin here.

// goldenStreamHashes pins name -> SHA-256 of the first 10k instructions at
// seed 1 with default parameters.
var goldenStreamHashes = map[string]string{
	"400.perlbench":  "88ac71fb5e2da02174d3b69af180d74ad5496d3f83be577233ee1f5b6c74d6a4",
	"401.bzip2":      "45db2042073728d82474364bae6a83fb8ee18da82d5d35b63287e0044c834267",
	"403.gcc":        "3aa63ff590e4adf082f9e2a378f4ab7c9f04e5a344d1e22d55ebb5c8b6aed1f2",
	"410.bwaves":     "3dc7a59abef35678e33b05b7aa861f93c55e8d8cc67947702e020d3a390cb2b6",
	"416.gamess":     "6c0453e9be53fdb87017f84d745dc6961a4faaac5dbdfaa1bffaef26f15d3835",
	"429.mcf":        "81ba326387d2b1bc924f41d325988abcaa2a486b850fb284c7f29ea6b9a7c97b",
	"433.milc":       "13d4b12758fa01411e340623a9f7802d34a9c5c8b78f92291a1214f18a7889e7",
	"434.zeusmp":     "4f9884b4611ee480403bd82fd805727188897a8f11ef56e0e5882b591a66e816",
	"435.gromacs":    "86fa6af7be6f5007f09aa75f449c400ddcf84d558db1218d934347ff7a9dc8cd",
	"436.cactusADM":  "db3e53de2dbeb59103248e9179c816a368745363af75a21a5fe4b1b23aea4c17",
	"437.leslie3d":   "a8de1f1d08554476bf46a4d46d763a6b82ed01efc346dda393763737dbaf6d1d",
	"444.namd":       "fcc419313c20b260e24bcccc638d81753a549b52b75f25ff648428bb84f38482",
	"445.gobmk":      "c358b48eb1376b508df83945d2c844690cd64df36a5b55f6ae1d438ede1cbdac",
	"447.dealII":     "7a2e1a7860281930cec2f87fc80f69a89b8ca1dbf4a5736cf1748215a25247e8",
	"450.soplex":     "d8c1742e05a3f22f2624aca4e82bc6123365dbf4d23a61d137f5da607c02ed26",
	"453.povray":     "5782163d9b9b765dcd539e33071164700d8f50d6fb2925492c6025cddd12aacb",
	"454.calculix":   "b1b7f1cd6bbd64363c03ee4cf9be8ca61bbf9ea98877b8441344f503a433c28c",
	"456.hmmer":      "f71572760db255f62d97372c40c0d087f044772df4d390fb273b2fe548ed9646",
	"458.sjeng":      "badbd27024a2e6b0f3e75ec668a5cf82efe2fa6a101a5b6a354492ed24253b27",
	"459.GemsFDTD":   "6bf59a102c253ccef3f89ff7d9dd901749cc186357d5ad6ec78bc0342c48f42a",
	"462.libquantum": "26dc84bb8b82ad39f1b20ddfc0f40941570716cae5809c6e91efc2cd5184a05c",
	"464.h264ref":    "04670ce623fb6752acae65f76689980f1ce5c9ee0383fcca970f09ed9f9dc729",
	"465.tonto":      "ad0bb4b63a2591ffd9f890f7f3cecd076a7b41a1468537ea17fa4d7f938e4ba1",
	"470.lbm":        "b9596c8b5a3974cebab0c86e593ff6137e5795b2a811d4ca124e888f08cdfb8a",
	"471.omnetpp":    "b80480b34edc2454fb8cc91d5a62de90e319ecfbe7679383c183b096e052bc0d",
	"473.astar":      "33686e3a54eaf86cb148d79237fac165dd548e719a9e8bd760a52b9b19a36b40",
	"481.wrf":        "e5cc5f840956ff22b9488da229514064f89c1c394de896c8e2882b576f17e966",
	"482.sphinx3":    "c088f8ff2aebb4303007f6ff969c834f77ebfb344bbbadea7ccd7c03c9dc152b",
	"483.xalancbmk":  "9a80880c259ff141de8a6f4a0b0655fcb243b0063b305a1d5e0240b015c8a3a8",
	"gups":           "157b99afd57b8d085d85ba33fd2b139cbbc2ae1399cf52634be152281e4fee7d",
	"microthrash":    "e4fa54278e515423b2cd08578ef39d1a44b0200424e00eb5a66b76280b479dfa",
	"mix":            "5652e3e70292e40c4643fbb60993b6d7c33edd636a1a0fb2f570d99f146f27d7",
	"pchase":         "9d17909e3e22e95a6767ed7e308ec987156eb53737cef5dfc7c15434046750d8",
	"stream":         "957c0707f729792407d0cd0217c14eb322ca123bcc71ace369182082aec362e6",
}

// streamHash packs each instruction's fields (op, dep flag, PC, VA) into a
// fixed record and hashes the first n of them.
func streamHash(g Generator, n int) string {
	h := sha256.New()
	var rec [18]byte
	for i := 0; i < n; i++ {
		inst := g.Next()
		rec[0] = byte(inst.Op)
		rec[1] = 0
		if inst.DepPrevLoad {
			rec[1] = 1
		}
		binary.LittleEndian.PutUint64(rec[2:], inst.PC)
		binary.LittleEndian.PutUint64(rec[10:], uint64(inst.VA))
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenStreams(t *testing.T) {
	for _, name := range Names() {
		spec := Spec{Name: name}
		if _, err := Normalize(spec); err != nil {
			// Not buildable with defaults ("file" needs a path): no default
			// stream to pin, but it must not be silently skippable either.
			if name != "file" {
				t.Errorf("%s: not buildable with defaults and not an expected exception: %v", name, err)
			}
			continue
		}
		want, pinned := goldenStreamHashes[name]
		if !pinned {
			g, err := NewGenerator(spec, 1)
			if err != nil {
				t.Errorf("%s: %v", name, err)
				continue
			}
			t.Errorf("%s: registered generator has no golden hash; pin %q", name, streamHash(g, 10000))
			continue
		}
		g, err := NewGenerator(spec, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if got := streamHash(g, 10000); got != want {
			t.Errorf("%s: default stream drifted:\n got %s\nwant %s\n(an intentional change needs a cache schema bump and a re-pin)", name, got, want)
		}
	}
	// Stale pins rot the map: every pinned name must still be registered.
	registered := make(map[string]bool)
	for _, name := range Names() {
		registered[name] = true
	}
	for name := range goldenStreamHashes {
		if !registered[name] {
			t.Errorf("golden hash pinned for unregistered generator %q", name)
		}
	}
}

// TestGoldenSatelliteSeedDerivation pins the satellite-core thrasher stream
// (seed 1 + 7919, the core-1 derived seed): the per-core seeding rule is
// part of what keeps legacy multi-core runs byte-identical.
func TestGoldenSatelliteSeedDerivation(t *testing.T) {
	const want = "5c1b3a52f4b7c63fa3ae3f71cad7f621d1b738480b4ad802d0305d15ecec0313"
	g, err := NewGenerator(Spec{Name: "microthrash"}, 1+7919)
	if err != nil {
		t.Fatal(err)
	}
	if got := streamHash(g, 10000); got != want {
		t.Errorf("core-1 thrasher stream drifted:\n got %s\nwant %s", got, want)
	}
}
