// Package core implements the ROCK clustering algorithm: the goodness
// measure and criterion function, the agglomerative merge engine,
// outlier handling, Chernoff-bound random sampling, the labeling phase for
// out-of-sample points, and the QROCK connected-components variant.
//
// Each phase has one engine, and each engine's reference lives in this
// package's tests as its oracle. engine.go holds the arena engine the
// pipeline runs; engine_reference_test.go holds the map-based reference
// (map[int]*clus, one indexed heap per cluster). Both produce
// byte-identical results — clusters, weeded set, merge count, and the
// full trace — which a randomized oracle test enforces configuration by
// configuration, so the fast engine is a refactor of the slow one in the
// strictest sense. label_reference_test.go plays the same role for the
// labeling phase and Model.Assign: the paper's serial pairwise loop.
//
// One pipeline (rock.go) serves Cluster and ClusterSeeded: the seeded
// entry point only adds a seed, which exempts its points from pruning and
// starts the arena from its groups.
//
// The merge phase (merge.go) builds the link table and the arena only
// when the answer depends on the merge order. A merge joins only
// clusters that share a link, and every goodness kind scores a shared
// link above zero, so the merge loop never joins two connected
// components of the link graph and always merges within one while it
// holds two clusters. With K or more components it therefore ends at
// exactly those components; when no trace is asked for and weeding
// cannot fire first, mergePhase returns them from a disjoint-set forest
// over the neighbor lists without building either, and
// TestMergePhaseComponentsOracle holds that path equal to the arena's.
//
// Arena invariants (engine.go): clusters live in slots [0, m), one per
// initial cluster; a merge reuses one parent's slot for the product and
// the other slot dies, so `alive` plus the logical `id` array replace the
// reference engine's map. Logical ids — initial slots 0..m-1, each merge
// minting the next id — are the paper's tie-break and trace currency;
// slots are storage only.
// Adjacency rows are sorted by slot, reference only live slots (merges
// and weeding scrub dead entries), and are recycled through a buffer
// pool; member lists are intrusive (head/tail/next over point indices),
// so merging is two pointer writes. Each slot caches its best merge
// partner (bestTo/bestG) plus a runner-up bound (boundG/boundID): a
// (goodness, logical id) pair that sorts, in (goodness desc, id asc)
// order, at or before every row entry except the cached best. The bound
// lets a merge repair a neighbor's best in O(1) — only a consumed best
// whose replacement falls at or below the bound rescans the row. The
// global lazy heap orders slots by that cached best, tie-breaking on
// logical id.
//
// Goodness evaluation: Config.Goodness picks one of a closed set of
// merge scores, which the arena evaluates inline with no indirect call.
// The default, GoodnessROCK, reads a per-run power table pow[s] =
// s^(1+2f) over every cluster size the run can reach (powTable), so the
// hot loop computes pow[a+b] − pow[a] − pow[b] with no math.Pow call;
// goodness_test.go keeps the formulas themselves as the reference
// engine's scoring and the table's bit-for-bit oracle.
package core

import (
	"fmt"
	"math"
)

// FTheta maps the neighbor threshold θ to the exponent function f(θ) used
// by the criterion and goodness measures: a point in cluster C_i is
// heuristically expected to have n_i^{f(θ)} neighbors within the cluster.
type FTheta func(theta float64) float64

// MarketBasketF is the paper's choice f(θ) = (1−θ)/(1+θ) for market-basket
// and categorical data.
func MarketBasketF(theta float64) float64 { return (1 - theta) / (1 + theta) }

// ConstantF returns an FTheta that ignores θ — useful in ablations probing
// the sensitivity of the criterion to the exponent.
func ConstantF(c float64) FTheta { return func(float64) float64 { return c } }

// Goodness selects the score the merge phase maximizes. The zero value
// is the paper's measure; the other two are the ablations experiment A1
// compares it with. Config.Validate rejects any other value.
type Goodness uint8

const (
	// GoodnessROCK is the paper's goodness measure
	//
	//	g(Ci,Cj) = link[Ci,Cj] / ((ni+nj)^(1+2f) − ni^(1+2f) − nj^(1+2f)),
	//
	// the observed cross-link count normalized by its expectation, which
	// prevents large clusters from absorbing everything simply because
	// they have many links in aggregate. Where 1+2f ≤ 1 makes the
	// expectation non-positive, it falls back to the raw link count.
	GoodnessROCK Goodness = iota
	// GoodnessLinkCount merges by raw cross-link count, the unnormalized
	// ablation. Large clusters dominate.
	GoodnessLinkCount
	// GoodnessLinksPerPair merges by links/(ni·nj), the mean number of
	// links per cross pair: a plausible but weaker normalization.
	GoodnessLinksPerPair
)

// powTable is GoodnessROCK's per-run table: pow[s] = s^(1+2f) for every
// cluster size s in [0, points]. Cluster sizes are integers and f is
// fixed for a run, so the three powers each candidate needs become three
// loads.
type powTable []float64

// newPowTable builds the table for clusters of up to points points.
func newPowTable(points int, f float64) powTable {
	exp := 1 + 2*f
	pow := make(powTable, points+1)
	for s := range pow {
		pow[s] = math.Pow(float64(s), exp)
	}
	return pow
}

// checkPowTable reports whether good's scores stay finite over clusters
// of up to points points: only GoodnessROCK can fail, when its table's
// pow[points] overflows float64. An infinite pow[s] would score every
// merge past size s links/+Inf = 0, which the merge loop reads as "no
// links left", and two clusters both past s NaN. pow[points] bounds the
// table: it grows with s when 1+2f > 0 and stays at most 1 for s ≥ 1
// otherwise. Both merge paths call it, so the error does not depend on
// which one runs.
func checkPowTable(good Goodness, points int, f float64) error {
	exp := 1 + 2*f
	if good == GoodnessROCK && points > 0 && math.IsInf(math.Pow(float64(points), exp), 1) {
		return fmt.Errorf("core: exponent 1+2f = %g overflows float64 for a cluster of n = %d points; use a smaller f(θ)", exp, points)
	}
	return nil
}

// goodness is GoodnessROCK for sizes ni and nj, the powers subtracted in
// the formula's order — (pow[ni+nj] − pow[ni]) − pow[nj] — because
// floating-point subtraction is not associative. With zero links it is
// 0, and with a non-positive denominator the raw link count.
func (pow powTable) goodness(links, ni, nj int32) float64 {
	if links == 0 {
		return 0
	}
	denom := pow[ni+nj] - pow[ni] - pow[nj]
	if denom <= 0 {
		return float64(links)
	}
	return float64(links) / denom
}

// Criterion evaluates the paper's criterion function
//
//	E_l = Σ_i n_i · Σ_{p,q ∈ C_i} link(p,q) / n_i^(1+2f)
//
// over a clustering, where clusters lists member point ids and get
// returns link counts between points. Maximizing E_l is the formal goal
// the greedy goodness-driven merging approximates.
func Criterion(clusters [][]int, get func(i, j int) int, f float64) float64 {
	exp := 1 + 2*f
	total := 0.0
	for _, members := range clusters {
		n := len(members)
		if n < 2 {
			continue
		}
		links := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				links += get(members[a], members[b])
			}
		}
		// Each unordered pair counted once; the paper's double sum over
		// ordered pairs is twice that, a constant factor that does not
		// change the argmax. We keep unordered counts throughout.
		total += float64(n) * float64(links) / math.Pow(float64(n), exp)
	}
	return total
}
