package core

import (
	"fmt"

	"github.com/rockclust/rock/internal/dataset"
)

// Seeded clustering: the incremental-refresh entry point.
//
// A streaming refresh does not need to re-discover the clusters it
// already has — it needs to decide where the newly parked outliers fit
// relative to them. ClusterSeeded runs the Cluster pipeline with the
// agglomeration arena initialized from pre-formed groups (the frozen
// model's labeled clusters) instead of singletons: θ-neighbors and
// point-level links are computed over the whole input, the arena folds
// the point-level links to the initial-cluster level as it builds its
// rows, and the merge loop starts from len(seed) groups plus one
// singleton per unseeded point. The paper's "cluster a sample, label the
// rest" economics applied online: the expensive O(Σ mᵢ²) phases run over
// reps+outliers (a few hundred points) instead of the full retained
// sample.

// ClusterSeeded runs the ROCK pipeline with the agglomeration seeded
// from pre-formed groups. seed[i] lists input indices of initial group
// i; groups must be non-empty and disjoint (points may be left out —
// they start as singletons). An empty seed degenerates to Cluster over
// the full input: the oracle test proves that case byte-identical.
//
// Differences from Cluster, by construction of the use case:
//   - No sampling (SampleSize must be 0) — the input already is the
//     reduced set.
//   - No merge tracing (TraceMerges must be false) — trace singleton
//     ids are undefined when slots start as groups.
//   - MinNeighbors prunes only unseeded points: seeded points earned
//     membership in the generation being refreshed, and the arena needs
//     every group intact.
//
// Weeding (WeedAt/WeedMaxSize) triggers on the count of initial
// clusters (groups + singletons), and cluster size is measured in
// points — a pre-formed group is normally bigger than WeedMaxSize and
// thus immune, which is the intended asymmetry: only stray outlier
// singletons and micro-clusters get discarded.
func ClusterSeeded(ts []dataset.Transaction, seed [][]int, cfg Config) (*Result, error) {
	if cfg.SampleSize > 0 {
		return nil, fmt.Errorf("core: seeded clustering does not sample (SampleSize=%d); pass the reduced input directly", cfg.SampleSize)
	}
	if cfg.TraceMerges {
		return nil, fmt.Errorf("core: seeded clustering cannot trace merges: trace singleton ids are undefined for pre-formed groups")
	}
	return cluster(ts, seed, cfg)
}

// seedGroups validates seed against an n-point input and returns each
// point's group index, -1 for points in no group — nil for an empty seed.
// It is indexed by input point, which is also the pipeline's sample index:
// seeded runs never sample.
func seedGroups(seed [][]int, n int) ([]int32, error) {
	if len(seed) == 0 {
		return nil, nil
	}
	groupOf := make([]int32, n)
	for i := range groupOf {
		groupOf[i] = -1
	}
	for gi, group := range seed {
		if len(group) == 0 {
			return nil, fmt.Errorf("core: seed group %d is empty", gi)
		}
		for _, p := range group {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("core: seed group %d references point %d outside the input (n=%d)", gi, p, n)
			}
			if groupOf[p] >= 0 {
				return nil, fmt.Errorf("core: point %d appears in more than one seed group", p)
			}
			groupOf[p] = int32(gi)
		}
	}
	return groupOf, nil
}

// seedSlots assigns each kept point (kept-local index) its initial arena
// slot: seed group gi is slot gi, and every other kept point gets a
// singleton slot after the groups, in ascending order. Pruning never drops
// a seeded point, so every group arrives whole. Without a seed
// (groupOf nil) the slots are the identity.
func seedSlots(kept []int, groups int, groupOf []int32) (slotOf []int32, slots int) {
	slotOf = make([]int32, len(kept))
	slots = groups
	for l, p := range kept {
		if groupOf != nil && groupOf[p] >= 0 {
			slotOf[l] = groupOf[p]
			continue
		}
		slotOf[l] = int32(slots)
		slots++
	}
	return slotOf, slots
}
