package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
)

// Result is the outcome of a ROCK run over a dataset of n transactions.
type Result struct {
	// Assign maps each input index to its cluster index in Clusters, or
	// -1 for outliers.
	Assign []int
	// Clusters lists member input indices, ascending; clusters are
	// ordered by smallest member.
	Clusters [][]int
	// Outliers lists input indices assigned to no cluster: points pruned
	// for having too few neighbors, members of weeded clusters, and
	// out-of-sample points with no labeled neighbor.
	Outliers []int
	// SampleIdx lists the input indices that formed the clustered sample,
	// or nil when the whole dataset was clustered.
	SampleIdx []int
	// MergeTrace is the dendrogram of the agglomeration when
	// Config.TraceMerges was set: ids 0..len(TracePoints)-1 are the
	// clustered points in TracePoints order, later ids are merge
	// products. Cut it at any k with CutTrace.
	MergeTrace []MergeStep
	// TracePoints maps trace singleton ids to input indices.
	TracePoints []int
	// LabelSets records the labeled subsets L_i the labeling phase drew
	// (one per cluster, dataset-global indices into the clustered
	// sample), or nil when no labeling pass ran. Freeze reuses them, so
	// a model frozen from a sampled run reproduces that run's labeling
	// exactly.
	LabelSets [][]int
	Stats     Stats
}

// Stats reports what happened during a run, mirroring the quantities in
// the paper's analysis (average/maximum neighbor-list size m_a and m_m,
// link pairs, merge count).
type Stats struct {
	N       int // input points
	Sampled int // points in the clustered sample (== N when unsampled)
	Pruned  int // points dropped by the MinNeighbors filter
	Weeded  int // points dropped at the weeding checkpoint
	// The labeling phase's ledger: every candidate entering the phase is
	// either labeled into a cluster or left unlabeled, so
	// LabelCandidates == Labeled + Unlabeled always holds (all three are
	// zero when no sample was drawn and LabelOutliers is off).
	LabelCandidates int     // points entering the labeling phase
	Labeled         int     // candidates assigned to a cluster by labeling
	Unlabeled       int     // candidates no cluster would accept
	AvgNeighbors    float64 // m_a over the sample
	MaxNeighbors    int     // m_m over the sample
	LinkPairs       int     // undirected pairs with positive link count
	LinkEntries     int64   // directed CSR link entries (2×LinkPairs; int64 — big tables pass 2³¹)
	Merges          int
	// StoppedEarly reports that the merge ran out of cross links before
	// reaching K: more than K clusters remain, each a whole connected
	// component of the link graph over the points the merge kept.
	StoppedEarly  bool
	ClustersFound int
	FVal          float64 // the exponent f(θ) in effect
}

// K returns the number of clusters found.
func (r *Result) K() int { return len(r.Clusters) }

// Sizes returns the cluster sizes in cluster order.
func (r *Result) Sizes() []int {
	s := make([]int, len(r.Clusters))
	for i, c := range r.Clusters {
		s[i] = len(c)
	}
	return s
}

// Cluster runs the full ROCK pipeline on ts: optional uniform sampling,
// θ-neighbor computation, outlier pruning, link computation, heap-driven
// agglomeration down to cfg.K clusters with optional weeding, and — when a
// sample was used — labeling of the remaining points. Every transaction
// must be canonical with no negative item (dataset.CheckTransactions);
// Cluster returns an error naming the first that is not.
func Cluster(ts []dataset.Transaction, cfg Config) (*Result, error) {
	return cluster(ts, nil, cfg)
}

// cluster is the one ROCK pipeline behind Cluster and ClusterSeeded. Its
// phases run in order: sample, θ-neighbors, prune, links, merge, label.
// A non-empty seed (seeded.go) exempts its points from pruning and starts
// the merge from its groups, folding point links to group links as the
// arena is built; with an empty seed both steps are the plain ones, which
// is why ClusterSeeded with no groups is byte-identical to Cluster.
func cluster(ts []dataset.Transaction, seed [][]int, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := dataset.CheckTransactions(ts, -1); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfg = cfg.withDefaults()
	n := len(ts)
	groupOf, err := seedGroups(seed, n)
	if err != nil {
		return nil, err
	}
	res := &Result{Assign: make([]int, n), Stats: Stats{N: n, FVal: cfg.fval()}}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	if n == 0 {
		return res, nil
	}

	rng := rand.New(rand.NewSource(cfg.Seed))

	// Phase 1: sample.
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	sampled := false
	if cfg.SampleSize > 0 && cfg.SampleSize < n {
		sample = SampleIndices(n, cfg.SampleSize, rng)
		sampled = true
		res.SampleIdx = sample
	}
	res.Stats.Sampled = len(sample)
	local := make([]dataset.Transaction, len(sample))
	for i, j := range sample {
		local[i] = ts[j]
	}

	// Phase 2: θ-neighbors over the sample.
	nb := neighborPhase(local, cfg, &res.Stats)

	// Phase 3: prune sparse points (paper: outliers have few neighbors);
	// seeded points are never pruned.
	kept, prunedLocal := pruneByDegree(nb, cfg.MinNeighbors, groupOf)
	res.Stats.Pruned = len(prunedLocal)
	for _, l := range prunedLocal {
		res.Outliers = append(res.Outliers, sample[l])
	}
	keptNb := filterNeighbors(nb, kept)

	// Phase 4: links over the kept sample, built directly in CSR form —
	// deterministic and worker-count independent.
	lt := linkage.Build(keptNb, linkage.Options{Workers: cfg.Workers})
	res.Stats.LinkPairs = lt.Pairs()
	res.Stats.LinkEntries = int64(lt.Entries())

	// Phase 5: merge, from one slot per seed group plus one singleton per
	// other kept point: the link graph's components when there are K or
	// more of them, the arena engine otherwise (mergePhase).
	slotOf, slots := seedSlots(kept, len(seed), groupOf)
	eng, err := mergePhase(lt, slotOf, slots, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Merges = eng.merges
	res.Stats.StoppedEarly = eng.stoppedEarly
	res.Stats.Weeded = len(eng.weeded)
	for _, l := range eng.weeded {
		res.Outliers = append(res.Outliers, sample[kept[l]])
	}
	if cfg.TraceMerges {
		res.MergeTrace = eng.trace
		res.TracePoints = make([]int, len(kept))
		for i, l := range kept {
			res.TracePoints[i] = sample[l]
		}
	}

	// Map engine clusters (kept-local indices) back to input indices.
	res.Clusters = make([][]int, len(eng.clusters))
	for ci, members := range eng.clusters {
		global := make([]int, len(members))
		for i, l := range members {
			global[i] = sample[kept[l]]
		}
		res.Clusters[ci] = global
		for _, g := range global {
			res.Assign[g] = ci
		}
	}
	res.Stats.ClustersFound = len(res.Clusters)

	// Phase 6: label the rest of the dataset (and, with LabelOutliers,
	// the sample's pruned/weeded points) against cluster subsets, on the
	// indexed labeler sharded across cfg.Workers (assignments
	// byte-identical to the serial pairwise reference).
	var candidates []int
	if sampled {
		inSample := make([]bool, n)
		for _, j := range sample {
			inSample[j] = true
		}
		for p := 0; p < n; p++ {
			if !inSample[p] {
				candidates = append(candidates, p)
			}
		}
	}
	if cfg.LabelOutliers {
		candidates = append(candidates, res.Outliers...)
		res.Outliers = nil
	}
	sort.Ints(candidates)
	res.Stats.LabelCandidates = len(candidates)
	if len(candidates) > 0 {
		if len(res.Clusters) == 0 {
			res.Stats.Unlabeled += len(candidates)
			res.Outliers = append(res.Outliers, candidates...)
		} else {
			sets := labelSets(res.Clusters, cfg, rng)
			res.LabelSets = sets
			assign := labelCandidates(ts, candidates, sets, cfg)
			for i, p := range candidates {
				ci := assign[i]
				if ci < 0 {
					res.Stats.Unlabeled++
					res.Outliers = append(res.Outliers, p)
					continue
				}
				res.Stats.Labeled++
				res.Assign[p] = ci
				res.Clusters[ci] = append(res.Clusters[ci], p)
			}
			for _, c := range res.Clusters {
				sort.Ints(c)
			}
		}
	}

	sort.Ints(res.Outliers)
	return res, nil
}

// neighborPhase computes the θ-neighbor lists of ts on the exact
// θ-query index and records m_a and m_m in stats. Cluster and QRock
// share it; cfg must have its defaults applied.
func neighborPhase(ts []dataset.Transaction, cfg Config, stats *Stats) *similarity.Neighbors {
	nb := similarity.ComputeIndexed(ts, cfg.Theta, similarity.Options{Measure: cfg.Measure, IncludeSelf: cfg.IncludeSelf, Workers: cfg.Workers})
	stats.AvgNeighbors, stats.MaxNeighbors, _ = nb.Stats()
	return nb
}

// pruneByDegree splits points into those with at least minNeighbors
// neighbors or a seed group (groupOf[i] >= 0; groupOf may be nil) — kept,
// ascending — and the rest (pruned, ascending).
func pruneByDegree(nb *similarity.Neighbors, minNeighbors int, groupOf []int32) (kept, pruned []int) {
	n := nb.Len()
	if minNeighbors <= 0 {
		kept = make([]int, n)
		for i := range kept {
			kept[i] = i
		}
		return kept, nil
	}
	for i := 0; i < n; i++ {
		if nb.Degree(i) >= minNeighbors || (groupOf != nil && groupOf[i] >= 0) {
			kept = append(kept, i)
		} else {
			pruned = append(pruned, i)
		}
	}
	return kept, pruned
}

// filterNeighbors renumbers neighbor lists onto the kept subset, dropping
// pruned points from every list.
func filterNeighbors(nb *similarity.Neighbors, kept []int) *similarity.Neighbors {
	if len(kept) == nb.Len() {
		return nb
	}
	newID := make([]int32, nb.Len())
	for i := range newID {
		newID[i] = -1
	}
	for ni, old := range kept {
		newID[old] = int32(ni)
	}
	out := &similarity.Neighbors{Lists: make([][]int32, len(kept))}
	for ni, old := range kept {
		var l []int32
		for _, j := range nb.Lists[old] {
			if nj := newID[j]; nj >= 0 {
				l = append(l, nj)
			}
		}
		out.Lists[ni] = l
	}
	return out
}
