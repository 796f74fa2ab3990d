package core

import (
	"math"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// Indexed labeling.
//
// The reference labeler (labelPoint, kept in label_reference_test.go as
// the oracle) evaluates the measure on every (candidate, labeled point)
// pair. The production labeler asks one similarity.Index, built over the
// labeled points of every L_i flattened into one slice, for the
// candidate's θ-neighbors and tallies them per set. The index answers
// exactly for every measure and θ (it scans item postings for a built-in
// measure at θ > 0 and falls back to the pairwise scan otherwise; the
// exactness argument is on similarity.Index), so each N_i equals the
// reference's count, and the score and tie rule below reproduce the
// reference's choice.
type labeler struct {
	ts []dataset.Transaction // the dataset that run's candidates index

	// denom[i] is (|L_i|+1)^f, hoisted out of the per-candidate loop.
	// math.Pow is pure, so the hoist preserves the reference's bits.
	denom []float64

	ix    *similarity.Index // over the flattened labeled points
	setOf []int32           // flattened labeled point → owning cluster index
}

// newLabeler prepares the labeling phase for the given cluster subsets.
// A nil sim selects Jaccard, mirroring Config.withDefaults.
func newLabeler(ts []dataset.Transaction, sets [][]int, theta, f float64, sim similarity.Measure) *labeler {
	lb := &labeler{ts: ts, denom: make([]float64, len(sets))}
	var pts []dataset.Transaction
	for i, li := range sets {
		lb.denom[i] = math.Pow(float64(len(li)+1), f)
		for _, q := range li {
			pts = append(pts, ts[q])
			lb.setOf = append(lb.setOf, int32(i))
		}
	}
	lb.ix = similarity.NewIndex(pts, theta, sim)
	return lb
}

// labelScratch is one worker's reusable per-candidate state: the index's
// query scratch, the candidate's θ-neighbors among the labeled points,
// and θ-neighbor counters over the sets paired with a touched list, so
// clearing costs O(touched), not O(sets).
type labelScratch struct {
	ix          *similarity.Scratch
	hits        []int32 // flattened labeled points within θ of the candidate
	setN        []int32 // per set: θ-neighbors of the candidate found
	touchedSets []int32 // sets with setN > 0
}

func (lb *labeler) newScratch() *labelScratch {
	return &labelScratch{
		ix:          lb.ix.NewScratch(),
		setN:        make([]int32, len(lb.denom)),
		touchedSets: make([]int32, 0, len(lb.denom)),
	}
}

// label assigns one candidate: the cluster index maximizing
// N_i / (|L_i|+1)^f, ties toward the smaller index, or -1 when the
// candidate has no θ-neighbor in any L_i.
func (lb *labeler) label(t dataset.Transaction, sc *labelScratch) int {
	sc.hits = lb.ix.Query(t, sc.ix, sc.hits[:0])
	for _, pid := range sc.hits {
		si := lb.setOf[pid]
		if sc.setN[si] == 0 {
			sc.touchedSets = append(sc.touchedSets, si)
		}
		sc.setN[si]++
	}

	// Argmax over the touched sets. The reference scans sets in ascending
	// index with a strict >, keeping the smallest index on score ties;
	// touchedSets is unordered, so the tie goes to the smaller index
	// explicitly — same winner, since both paths compute identical
	// score floats.
	best := -1
	bestScore := 0.0
	for _, si := range sc.touchedSets {
		score := float64(sc.setN[si]) / lb.denom[si]
		sc.setN[si] = 0
		i := int(si)
		if best == -1 || score > bestScore || (score == bestScore && i < best) {
			best, bestScore = i, score
		}
	}
	sc.touchedSets = sc.touchedSets[:0]
	return best
}
