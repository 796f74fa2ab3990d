package core

import (
	"math"
	"math/rand"
)

// SampleIndices draws size indices uniformly without replacement from
// [0,n), returned in ascending order. If size ≥ n it returns all indices.
func SampleIndices(n, size int, rng *rand.Rand) []int {
	if size >= n {
		size = n
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	// Partial Fisher–Yates: the first `size` entries are a uniform sample.
	for i := 0; i < size; i++ {
		j := i + rng.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Emit the drawn indices in ascending order, into the perm's own
	// storage: the marks are set before the first write.
	drawn := make([]bool, n)
	for _, p := range perm[:size] {
		drawn[p] = true
	}
	out := perm[:0]
	for p, d := range drawn {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// ChernoffSampleSize returns the minimum random-sample size s such that,
// with probability at least 1−delta, the sample contains at least
// frac·|u| points of a cluster u with clusterSize points out of N total —
// the bound ROCK inherits from CURE for sizing its clustering sample:
//
//	s ≥ frac·N + (N/|u|)·log(1/δ) + (N/|u|)·√(log²(1/δ) + 2·frac·|u|·log(1/δ))
//
// The result is capped at N.
func ChernoffSampleSize(n, clusterSize int, frac, delta float64) int {
	if n <= 0 || clusterSize <= 0 {
		return 0
	}
	if delta <= 0 || delta >= 1 {
		return n
	}
	nf := float64(n)
	u := float64(clusterSize)
	l := math.Log(1 / delta)
	s := frac*nf + nf/u*l + nf/u*math.Sqrt(l*l+2*frac*u*l)
	size := int(math.Ceil(s))
	if size > n {
		size = n
	}
	if size < 0 {
		size = 0
	}
	return size
}
