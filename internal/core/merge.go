package core

import (
	"math"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/unionfind"
)

// mergePhase is the pipeline's phase 5. It agglomerates the initial
// slots slotOf names (seedSlots) over the point-level link table lt,
// down to cfg.K clusters or until no cross links remain, with cfg's
// goodness, weeding and trace; cfg must have its defaults applied.
// Weeding triggers when the active clusters first fall to
// ⌈WeedAt·slots⌉, but never below K.
//
// It first counts the connected components of the slot link graph, in
// which two slots are adjacent when a point of one links a point of the
// other. Let c be that count. When c ≥ K, tracing is off, and weeding
// cannot fire (no WeedAt, or c above the trigger), the merge loop can
// only end at those components, so mergePhase returns them without
// building the arena:
//
//   - Every score is positive. A row entry holds a positive count, and
//     every Goodness kind scores a positive count above 0: GoodnessROCK
//     divides it by an expectation that is finite (checkPowTable) or
//     falls back to the count when that is not positive, and the
//     ablations divide it by nothing or by a product of sizes.
//   - Merges stay inside components. The loop merges a cluster with a
//     partner from its row, which holds only clusters it shares a link
//     with, and clusters in different components share none.
//   - So at least c clusters are always active, one or more per
//     component, and weeding, whose trigger lies below c when it is
//     asked for, never fires. While more than c are active, some
//     component holds two clusters, a link joins two of its clusters,
//     so the heap holds a positive best, and the loop, which stops only
//     on an empty heap, a non-positive score or K ≤ c active clusters,
//     merges again.
//
// The loop therefore ends with one cluster per component after
// slots − c merges, and it stops early exactly when c > K. The
// components come back as collect orders clusters: members ascending,
// clusters by smallest member. Otherwise mergePhase builds the arena
// and runs the merge loop. Both paths fail on a GoodnessROCK power table
// that overflows; only the arena reads counts, so only it fails on a
// folded count past 2³¹.
func mergePhase(lt *linkage.Compact, slotOf []int32, slots int, cfg Config) (engineResult, error) {
	f := cfg.fval()
	weedTrigger := 0
	if cfg.WeedAt > 0 {
		weedTrigger = max(int(math.Ceil(cfg.WeedAt*float64(slots))), cfg.K)
	}

	// A forest over points, each slot's points joined through its first
	// point: the components are then point sets, ready to return.
	uf := unionfind.New(len(slotOf))
	first := make([]int32, slots)
	for s := range first {
		first[s] = -1
	}
	for i, s := range slotOf {
		if first[s] < 0 {
			first[s] = int32(i)
		} else {
			uf.Union(int(first[s]), i)
		}
		// Row i's root is cached: most of its links join points already
		// in its set, and those cost one Find instead of a Union.
		ri := uf.Find(i)
		lt.Row(i, func(j, _ int) {
			if j > i {
				if rj := uf.Find(j); rj != ri {
					uf.Union(ri, rj)
					ri = uf.Find(ri)
				}
			}
		})
	}
	comps := uf.Count()

	if cfg.TraceMerges || comps < cfg.K || (weedTrigger > 0 && comps <= weedTrigger) {
		a, err := newArena(lt, slotOf, slots, cfg.Goodness, f)
		if err != nil {
			return engineResult{}, err
		}
		return runAgglomeration(a, cfg.K, weedTrigger, cfg.WeedMaxSize, cfg.TraceMerges), nil
	}
	if err := checkPowTable(cfg.Goodness, len(slotOf), f); err != nil {
		return engineResult{}, err
	}
	return engineResult{clusters: uf.Components(), merges: slots - comps, stoppedEarly: comps > cfg.K}, nil
}

// BenchAgglomerateArena runs the pipeline's merge phase over a prebuilt
// CSR link table from singleton slots, with the default GoodnessROCK and
// no weeding or trace, exported for perfbench, whose --trace 1 run times
// it as the core.merge span. It is mergePhase itself, so it times what
// Cluster runs: the link graph's components when they number K or more,
// the arena otherwise. It panics where the pipeline would return an
// error.
func BenchAgglomerateArena(n int, lt *linkage.Compact, k int, f float64) (clusters, merges int) {
	slotOf := make([]int32, n)
	for i := range slotOf {
		slotOf[i] = int32(i)
	}
	res, err := mergePhase(lt, slotOf, n, Config{K: k, F: ConstantF(f)})
	if err != nil {
		panic(err)
	}
	return len(res.clusters), res.merges
}
