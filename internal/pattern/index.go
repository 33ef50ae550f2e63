package pattern

import "slices"

// Deterministic pseudo-random index-array generators. The paper's indexed
// pattern ω is "an arbitrary sequence of words ... determined by indices
// given in a separate index array" (§2.2), typically a permutation
// (A[1:n] = B[X[1:n]] with X a duplicate-free permutation, §2.1).
//
// All generators are seeded and reproducible; no global randomness is
// used so simulation results are stable across runs.

// rng is a small xorshift64* generator; good enough for shuffling and
// fully deterministic.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545F4914F6CDD1D
}

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// Permutation returns a duplicate-free permutation of the word offsets
// 0..n-1 using a Fisher-Yates shuffle seeded with seed.
func Permutation(n int, seed uint64) []int64 {
	return AppendPermutation(make([]int64, 0, n), n, seed)
}

// AppendPermutation appends Permutation(n, seed) to buf and returns the
// extended slice, so a caller that builds permutation after permutation
// reuses one buffer.
func AppendPermutation(buf []int64, n int, seed uint64) []int64 {
	start := len(buf)
	buf = slices.Grow(buf, n)
	for i := 0; i < n; i++ {
		buf = append(buf, int64(i))
	}
	p := buf[start:]
	r := newRNG(seed)
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return buf
}

// IsPermutation reports whether index is a duplicate-free permutation of
// 0..len(index)-1.
func IsPermutation(index []int64) bool {
	seen := make([]bool, len(index))
	for _, v := range index {
		if v < 0 || v >= int64(len(index)) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
