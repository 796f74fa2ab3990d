package core

import (
	"fmt"
	"sort"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/unionfind"
)

// QRockConfig parameterizes the QROCK variant.
type QRockConfig struct {
	// Theta is the neighbor threshold, as in ROCK.
	Theta float64
	// MinClusterSize discards components smaller than this as outliers;
	// values below 1 keep everything.
	MinClusterSize int
	// Measure is the similarity; the zero value is Jaccard.
	Measure similarity.Measure
	// Workers bounds parallelism in neighbor computation.
	Workers int
}

// QRock implements the QROCK observation (a well-known follow-on
// simplification of ROCK): when the requested number of clusters is
// allowed to float, ROCK's merging — which joins any two clusters with a
// positive cross link — terminates exactly at the connected components of
// the θ-neighbor graph. QROCK therefore computes those components
// directly with a disjoint-set forest, skipping the link phase and heaps
// entirely. It serves as the A2 ablation:
// where component structure is enough, QROCK is dramatically cheaper;
// where cluster counts must be driven down to k, full ROCK's goodness
// ordering matters.
//
// ROCK's merge never joins two connected components of the link graph,
// so at any K up to their count it ends at exactly those components
// (K=1 always qualifies). The equivalence therefore holds for ROCK with
// self-inclusive neighbor lists (Config.IncludeSelf), no pruning or
// weeding, and K at most the component count: every θ-edge then carries
// at least two links, its endpoints being common neighbors of the pair,
// and a link is a two-edge θ-path, so the two graphs share their
// components. Without IncludeSelf a link counts only third parties, so
// two points that are each other's only neighbor share no link and never
// merge, while QRock joins them. Like Cluster, QRock returns an error
// naming the first transaction that is not canonical or holds a negative
// item.
func QRock(ts []dataset.Transaction, cfg QRockConfig) (*Result, error) {
	rcfg := Config{Theta: cfg.Theta, K: 1, Measure: cfg.Measure, Workers: cfg.Workers}
	if err := rcfg.Validate(); err != nil {
		return nil, err
	}
	if err := dataset.CheckTransactions(ts, -1); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rcfg = rcfg.withDefaults()
	n := len(ts)
	res := &Result{Assign: make([]int, n), Stats: Stats{N: n, Sampled: n, FVal: rcfg.fval()}}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	if n == 0 {
		return res, nil
	}

	nb := neighborPhase(ts, rcfg, &res.Stats)

	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
		for _, j := range nb.Lists[i] {
			uf.Union(i, int(j))
		}
	}

	for _, comp := range uf.Components() {
		if len(comp) < cfg.MinClusterSize {
			res.Outliers = append(res.Outliers, comp...)
			continue
		}
		ci := len(res.Clusters)
		res.Clusters = append(res.Clusters, comp)
		for _, p := range comp {
			res.Assign[p] = ci
		}
	}
	res.Stats.ClustersFound = len(res.Clusters)
	sort.Ints(res.Outliers)
	return res, nil
}
