package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeoMeanKnownValues(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %g, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("GeoMean(1,1,1) = %g, want 1", got)
	}
	if got := GeoMean(nil); got != 1 {
		t.Errorf("GeoMean(nil) = %g, want 1", got)
	}
}

func TestGeoMeanScaleInvariance(t *testing.T) {
	// GeoMean(k*xs) == k*GeoMean(xs) for positive k.
	f := func(a, b, c uint8) bool {
		xs := []float64{float64(a)/16 + 0.1, float64(b)/16 + 0.1, float64(c)/16 + 0.1}
		k := 3.5
		scaled := []float64{k * xs[0], k * xs[1], k * xs[2]}
		return math.Abs(GeoMean(scaled)-k*GeoMean(xs)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("GeoMean of zero did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestSpeedup(t *testing.T) {
	if got := Speedup(2, 3); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Speedup(2,3) = %g, want 1.5", got)
	}
}

func TestTableRenderAndValues(t *testing.T) {
	tb := NewTable("demo", "1-core", "2-core")
	tb.AddRow("400", 1.0, 2.0)
	tb.AddRow("401", 4.0, 8.0)
	tb.AddGeoMeanRow()
	gm0, ok := tb.Value("GM", 0)
	if !ok || math.Abs(gm0-2.0) > 1e-12 {
		t.Errorf("GM col 0 = %g (ok=%v), want 2", gm0, ok)
	}
	gm1, _ := tb.Value("GM", 1)
	if math.Abs(gm1-4.0) > 1e-12 {
		t.Errorf("GM col 1 = %g, want 4", gm1)
	}
	out := tb.String()
	for _, want := range []string{"demo", "1-core", "400", "GM"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
	if _, ok := tb.Value("nope", 0); ok {
		t.Error("Value on missing row reported ok")
	}
	if _, ok := tb.Value("GM", 9); ok {
		t.Error("Value on out-of-range column reported ok")
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddRow with wrong arity did not panic")
		}
	}()
	NewTable("x", "a", "b").AddRow("r", 1.0)
}
