// Package core implements the ROCK clustering algorithm: the goodness
// measure and criterion function, the agglomerative merge engines,
// outlier handling, Chernoff-bound random sampling, the labeling phase for
// out-of-sample points, and the QROCK connected-components variant.
//
// Two merge engines share one contract. engine_reference.go holds the
// map-based reference (map[int]*clus, one indexed heap per cluster);
// engine.go holds the arena engine the pipeline runs. Both produce
// byte-identical results — clusters, weeded set, merge count, and the
// full trace — which a randomized oracle test enforces configuration by
// configuration, so the fast engine is a refactor of the slow one in the
// strictest sense.
//
// One pipeline (rock.go) serves Cluster and ClusterSeeded: the seeded
// entry point only adds a seed, which exempts its points from pruning and
// starts the arena from its groups.
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
// Goodness evaluation: a nil Config.Goodness selects the built-in
// RockGoodness, which the arena evaluates from a per-run power table
// pow[s] = s^(1+2f) over every cluster size the run can reach
// (powTable), so the hot loop computes pow[a+b] − pow[a] − pow[b] with no
// math.Pow call and the same bits RockGoodness returns. A non-nil
// Goodness is called once per candidate.
package core

import (
	"math"

	"github.com/rockclust/rock/internal/linkage"
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

// GoodnessFunc scores a candidate merge of clusters with sizes ni and nj
// joined by links cross links, given the exponent value f = f(θ). Higher
// is better. ROCK merges the pair with maximal goodness.
type GoodnessFunc func(links int, ni, nj int, f float64) float64

// RockGoodness is the paper's goodness measure
//
//	g(Ci,Cj) = link[Ci,Cj] / ((ni+nj)^(1+2f) − ni^(1+2f) − nj^(1+2f)),
//
// the observed cross-link count normalized by its expectation, which
// prevents large clusters from absorbing everything simply because they
// have many links in aggregate.
func RockGoodness(links int, ni, nj int, f float64) float64 {
	if links == 0 {
		return 0
	}
	exp := 1 + 2*f
	denom := math.Pow(float64(ni+nj), exp) - math.Pow(float64(ni), exp) - math.Pow(float64(nj), exp)
	if denom <= 0 {
		// exp ≤ 1 can produce a non-positive expectation; fall back to the
		// raw link count so merging still prefers strongly linked pairs.
		return float64(links)
	}
	return float64(links) / denom
}

// powTable is the built-in goodness's per-run table: pow[s] =
// s^(1+2f) for every cluster size s in [0, points]. Cluster sizes are
// integers and f is fixed for a run, so the three math.Pow calls
// RockGoodness makes per candidate become three loads.
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

// goodness is RockGoodness(links, ni, nj, f) read from the table, bit
// for bit: the same powers subtracted in the same order —
// (pow[ni+nj] − pow[ni]) − pow[nj] — because floating-point subtraction
// is not associative, and the same zero-link and non-positive-denominator
// cases.
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

// LinkCountGoodness merges by raw cross-link count — the unnormalized
// ablation of RockGoodness. Large clusters dominate.
func LinkCountGoodness(links int, ni, nj int, f float64) float64 {
	return float64(links)
}

// AverageLinkGoodness merges by links/(ni·nj), the mean number of links
// per cross pair — a plausible but weaker normalization, compared in the
// goodness ablation (experiment A1 of `rockbench -list`).
func AverageLinkGoodness(links int, ni, nj int, f float64) float64 {
	return float64(links) / (float64(ni) * float64(nj))
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

// CriterionCSR evaluates the same criterion directly over a CSR link
// table: each member's row is scanned once against a cluster-membership
// array, so a cluster costs O(Σ_{p∈C_i} deg(p)) instead of the O(n_i²)
// pair probes of Criterion. Values agree exactly with
// Criterion(clusters, c.Get, f).
func CriterionCSR(clusters [][]int, c *linkage.Compact, f float64) float64 {
	cluster := make([]int32, c.Len())
	for i := range cluster {
		cluster[i] = -1
	}
	for ci, members := range clusters {
		for _, p := range members {
			cluster[p] = int32(ci)
		}
	}
	exp := 1 + 2*f
	total := 0.0
	for ci, members := range clusters {
		n := len(members)
		if n < 2 {
			continue
		}
		links := 0
		for _, p := range members {
			c.Row(p, func(j, count int) {
				// Count each unordered intra-cluster pair once.
				if j > p && cluster[j] == int32(ci) {
					links += count
				}
			})
		}
		total += float64(n) * float64(links) / math.Pow(float64(n), exp)
	}
	return total
}
