package rng

import (
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("divergence at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestIntnRange(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		bound := int(n)%100 + 1
		s := New(seed)
		for i := 0; i < 100; i++ {
			v := s.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformity(t *testing.T) {
	// Coarse chi-square-ish check: 16 buckets over 64k draws should each
	// hold ~4096 +- 10%.
	s := New(99)
	var buckets [16]int
	const draws = 1 << 16
	for i := 0; i < draws; i++ {
		buckets[s.Uint64()%16]++
	}
	for i, c := range buckets {
		if c < draws/16*9/10 || c > draws/16*11/10 {
			t.Errorf("bucket %d has %d draws, expected about %d", i, c, draws/16)
		}
	}
}

func TestOneIn(t *testing.T) {
	s := New(5)
	hits := 0
	const n = 32000
	for i := 0; i < n; i++ {
		if s.OneIn(32) {
			hits++
		}
	}
	if hits < n/32/2 || hits > n/32*2 {
		t.Errorf("OneIn(32) hit %d of %d", hits, n)
	}
}
