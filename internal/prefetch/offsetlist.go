package prefetch

// The paper's offset list (section 4.2): all offsets between 1 and 256
// whose prime factorization contains no prime greater than 5. Sampling
// offsets this way keeps small offsets dense (they are the most useful),
// keeps the list short (52 entries instead of 256), and guarantees that if
// two offsets are in the list so is their least common multiple (when it is
// not too large), which matters for interleaved streams (section 3.3).

// DefaultMaxOffset is the largest offset the paper considers (useful with
// 4MB superpages; with 4KB pages offsets above 63 never fire).
const DefaultMaxOffset = 256

// OffsetList returns all offsets in [1, maxOffset] whose prime factors are
// all <= maxPrime, in increasing order.
func OffsetList(maxOffset, maxPrime int) []int {
	var out []int
	for d := 1; d <= maxOffset; d++ {
		if largestPrimeFactor(d) <= maxPrime {
			out = append(out, d)
		}
	}
	return out
}

// defaultOffsets is the paper's list, factored once: every DefaultParams of
// bo and sbp — hence every engine.New — asks for it.
var defaultOffsets = OffsetList(DefaultMaxOffset, 5)

// DefaultOffsetList returns the paper's 52-offset list: 1..256 with prime
// factors <= 5. The slice is the caller's to modify.
func DefaultOffsetList() []int { return append([]int(nil), defaultOffsets...) }

// DenseOffsetList returns every offset in [1, maxOffset]; used by the
// ablation comparing the sampled list against a dense one.
func DenseOffsetList(maxOffset int) []int {
	out := make([]int, maxOffset)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// largestPrimeFactor returns the largest prime factor of n (1 for n=1).
func largestPrimeFactor(n int) int {
	largest := 1
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			largest = f
			n /= f
		}
	}
	if n > 1 {
		largest = n
	}
	return largest
}
