package core

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/rockclust/rock/internal/dataset"
)

// ChunkedConfig parameterizes ChunkedCluster, the two-phase adaptation of
// ROCK to datasets that cannot be clustered wholesale (the classic
// strategy for scaling multi-pass clusterers: cluster each arriving chunk
// independently, keep only representatives, then cluster the
// representatives).
type ChunkedConfig struct {
	// Base configures each per-chunk ROCK run and the final run over
	// representatives (Theta, K, Goodness, outlier handling, ...).
	// Base.K is the final target; per-chunk runs use ChunkK.
	Base Config
	// ChunkSize is the number of points per chunk (mandatory, ≥ 2).
	ChunkSize int
	// ChunkK is the per-chunk cluster target; 0 defaults to 2×Base.K
	// (over-cluster the chunks, let the representative phase consolidate).
	ChunkK int
	// Reps is the number of representative points kept per chunk cluster
	// (default 4).
	Reps int
}

// ChunkedCluster runs ROCK chunk by chunk: each chunk is clustered
// independently, Reps random members of every chunk cluster survive as
// representatives, the representatives are clustered down to Base.K, and
// every point inherits the final cluster of its chunk cluster (by
// majority vote of that chunk cluster's representatives). Chunk-level
// outliers stay outliers. Memory is bounded by the chunk size plus the
// representative set — the property that makes the strategy stream-able.
func ChunkedCluster(ts []dataset.Transaction, cfg ChunkedConfig) (*Result, error) {
	if cfg.ChunkSize < 2 {
		return nil, fmt.Errorf("core: chunk size %d, need at least 2", cfg.ChunkSize)
	}
	if err := cfg.Base.Validate(); err != nil {
		return nil, err
	}
	// Checked here as well as in each chunk's Cluster call, so the error
	// names the transaction's index in ts rather than in its chunk.
	if err := dataset.CheckTransactions(ts, -1); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ChunkK <= 0 {
		cfg.ChunkK = 2 * cfg.Base.K
	}
	if cfg.Reps <= 0 {
		cfg.Reps = 4
	}

	n := len(ts)
	res := &Result{Assign: make([]int, n), Stats: Stats{N: n, FVal: cfg.Base.withDefaults().fval()}}
	for i := range res.Assign {
		res.Assign[i] = -1
	}
	if n == 0 {
		return res, nil
	}
	rng := rand.New(rand.NewSource(cfg.Base.Seed))

	// Phase 1: per-chunk clustering; collect representatives and remember
	// each point's chunk cluster.
	type chunkCluster struct {
		members []int // global indices
		reps    []int // global indices of representatives
	}
	var ccs []chunkCluster
	var repIdx []int // global indices, concatenated reps of all chunk clusters
	for lo := 0; lo < n; lo += cfg.ChunkSize {
		hi := lo + cfg.ChunkSize
		if hi > n {
			hi = n
		}
		chunkCfg := cfg.Base
		chunkCfg.K = cfg.ChunkK
		chunkCfg.SampleSize = 0 // chunks are already memory-sized
		chunkCfg.Seed = cfg.Base.Seed + int64(lo)
		sub, err := Cluster(ts[lo:hi], chunkCfg)
		if err != nil {
			return nil, err
		}
		for _, members := range sub.Clusters {
			cc := chunkCluster{members: make([]int, len(members))}
			for i, p := range members {
				cc.members[i] = lo + p
			}
			pick := SampleIndices(len(cc.members), cfg.Reps, rng)
			for _, pi := range pick {
				cc.reps = append(cc.reps, cc.members[pi])
				repIdx = append(repIdx, cc.members[pi])
			}
			ccs = append(ccs, cc)
		}
		for _, p := range sub.Outliers {
			res.Outliers = append(res.Outliers, lo+p)
		}
	}
	if len(ccs) == 0 {
		sort.Ints(res.Outliers)
		return res, nil
	}

	// Phase 2: cluster the representatives down to Base.K.
	repTrans := make([]dataset.Transaction, len(repIdx))
	for i, p := range repIdx {
		repTrans[i] = ts[p]
	}
	finalCfg := cfg.Base
	finalCfg.SampleSize = 0
	finalCfg.MinNeighbors = 0 // representatives were already vetted
	finalCfg.WeedAt = 0
	final, err := Cluster(repTrans, finalCfg)
	if err != nil {
		return nil, err
	}

	// Phase 3: each chunk cluster inherits the majority final cluster of
	// its representatives; its members follow.
	repAssign := make(map[int]int, len(repIdx)) // global rep index -> final cluster
	for i, p := range repIdx {
		repAssign[p] = final.Assign[i]
	}
	res.Clusters = make([][]int, len(final.Clusters))
	for _, cc := range ccs {
		votes := map[int]int{}
		for _, r := range cc.reps {
			if ci := repAssign[r]; ci >= 0 {
				votes[ci]++
			}
		}
		best, bestN := -1, 0
		for ci, v := range votes {
			if v > bestN || (v == bestN && ci < best) {
				best, bestN = ci, v
			}
		}
		if best < 0 {
			// All representatives ended as outliers of the final phase.
			res.Outliers = append(res.Outliers, cc.members...)
			continue
		}
		for _, p := range cc.members {
			res.Assign[p] = best
		}
		res.Clusters[best] = append(res.Clusters[best], cc.members...)
	}
	// Drop final clusters that attracted no chunk cluster and renumber.
	compact := res.Clusters[:0]
	for _, members := range res.Clusters {
		if len(members) > 0 {
			sort.Ints(members)
			compact = append(compact, members)
		}
	}
	res.Clusters = compact
	sort.Slice(res.Clusters, func(i, j int) bool { return res.Clusters[i][0] < res.Clusters[j][0] })
	for ci, members := range res.Clusters {
		for _, p := range members {
			res.Assign[p] = ci
		}
	}
	res.Stats.ClustersFound = len(res.Clusters)
	sort.Ints(res.Outliers)
	return res, nil
}
