package core

import (
	"math"
	"math/rand"
)

// The labeling phase (phase 6). labelSets below draws each cluster's
// labeled subset L_i; the indexed labeler (label_indexed.go) scores every
// candidate against the L_i through one similarity.Index, and
// label_parallel.go shards the candidates across workers. That is the
// only labeling path. The paper's serial pairwise loop lives in
// label_reference_test.go as the oracle both are proven against.

// labelSets draws the per-cluster labeling subsets L_i: a uniform random
// LabelFraction of each cluster's members (at least one, at most
// MaxLabelPoints). Members are dataset-global indices.
func labelSets(clusters [][]int, cfg Config, rng *rand.Rand) [][]int {
	out := make([][]int, len(clusters))
	for i, members := range clusters {
		want := int(math.Ceil(cfg.LabelFraction * float64(len(members))))
		if want < 1 {
			want = 1
		}
		if want > cfg.MaxLabelPoints {
			want = cfg.MaxLabelPoints
		}
		if want > len(members) {
			want = len(members)
		}
		pick := SampleIndices(len(members), want, rng)
		li := make([]int, len(pick))
		for j, p := range pick {
			li[j] = members[p]
		}
		out[i] = li
	}
	return out
}
