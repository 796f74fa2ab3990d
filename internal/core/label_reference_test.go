package core

import (
	"math"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// The labeling phase's oracles, the label-side counterpart of
// engine_reference_test.go. The pipeline labels through the indexed,
// sharded labeler (label_indexed.go, label_parallel.go) and Model.Assign
// queries the same labeler; the oracle tests prove both byte-identical
// to the serial pairwise loop below. None of it ships in the library.

// labelPoint assigns one out-of-sample point to the cluster maximizing the
// paper's labeling score N_i / (|L_i|+1)^f, where N_i is the number of
// θ-neighbors of the point inside L_i. It returns -1 when the point has no
// neighbor in any L_i (an outlier with respect to the discovered
// clusters). Ties break toward the smaller cluster index, keeping the
// phase deterministic.
func labelPoint(t dataset.Transaction, ts []dataset.Transaction, sets [][]int, theta, f float64, m similarity.Measure) int {
	best := -1
	bestScore := 0.0
	for i, li := range sets {
		n := 0
		for _, q := range li {
			if m.Sim(t, ts[q]) >= theta {
				n++
			}
		}
		if n == 0 {
			continue
		}
		score := float64(n) / math.Pow(float64(len(li)+1), f)
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// labelCandidatesReference is the serial pairwise labeling loop: labelPoint
// over every candidate.
func labelCandidatesReference(ts []dataset.Transaction, candidates []int, sets [][]int, theta, f float64, m similarity.Measure) []int {
	out := make([]int, len(candidates))
	for i, p := range candidates {
		out[i] = labelPoint(ts[p], ts, sets, theta, f, m)
	}
	return out
}

// assignReference is the model's oracle: labelPoint over the frozen
// points and sets, query by query.
func (m *Model) assignReference(ts []dataset.Transaction) []int {
	out := make([]int, len(ts))
	for i, t := range ts {
		out[i] = labelPoint(t, m.pts, m.sets, m.theta, m.fval, m.measure)
	}
	return out
}

// denomEqual reports whether the model's frozen normalization matches a
// freshly computed (|L_i|+1)^f table.
func (m *Model) denomEqual() bool {
	for i, li := range m.sets {
		if m.lb.denom[i] != math.Pow(float64(len(li)+1), m.fval) {
			return false
		}
	}
	return true
}
