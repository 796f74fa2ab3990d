package core

import (
	"math"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/unionfind"
)

// mergePhase is the pipeline's phases 4 and 5, links and merge. It
// agglomerates the initial slots slotOf names (seedSlots) over the link
// table of the kept points' neighbor lists nb, down to cfg.K clusters or
// until no cross links remain, with cfg's goodness, weeding and trace;
// cfg must have its defaults applied. Weeding triggers when the active
// clusters first fall to ⌈WeedAt·slots⌉, but never below K. It records
// the table's linked pairs and entries in stats.
//
// It first counts the connected components of the slot link graph, in
// which two slots are adjacent when a point of one links a point of the
// other, from the lists alone (listComponents). Let c be that count.
// When c ≥ K, tracing is off, and weeding cannot fire (no WeedAt, or c
// above the trigger), the merge loop can only end at those components,
// so mergePhase returns them without building the link table or the
// arena:
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
// clusters by smallest member. On this components path the linked pairs
// are counted without a table (linkage.CountPairs), and the entries are
// twice the pairs. Otherwise, or when cfg.forceLinkTable is set,
// mergePhase builds the table (linkage.Build) and runs the merge loop on
// the arena. Both paths fail on a GoodnessROCK power table that
// overflows; only the arena reads counts, so only it fails on a folded
// count past 2³¹.
func mergePhase(nb *similarity.Neighbors, slotOf []int32, slots int, cfg Config, stats *Stats) (engineResult, error) {
	trigger := 0
	if cfg.WeedAt > 0 {
		trigger = max(int(math.Ceil(cfg.WeedAt*float64(slots))), cfg.K)
	}
	uf := listComponents(nb, slotOf, slots)
	opts := linkage.Options{Workers: cfg.Workers}
	if !cfg.forceLinkTable && componentsEnd(cfg, uf.Count(), trigger) {
		eng, err := componentsResult(uf, slots, cfg)
		if err != nil {
			return engineResult{}, err
		}
		stats.LinkPairs = linkage.CountPairs(nb, opts)
		stats.LinkEntries = 2 * int64(stats.LinkPairs)
		return eng, nil
	}
	lt := linkage.Build(nb, opts)
	stats.LinkPairs, stats.LinkEntries = lt.Pairs(), int64(lt.Entries())
	return arenaMerge(lt, slotOf, slots, cfg, trigger)
}

// componentsEnd reports whether the merge loop must end at the c
// components of the link graph (mergePhase): tracing is off, c ≥ K, and
// weeding cannot fire.
func componentsEnd(cfg Config, c, trigger int) bool {
	return !cfg.TraceMerges && c >= cfg.K && (trigger == 0 || c > trigger)
}

// listComponents returns the components of the slot link graph as a
// forest over the slots' points, from the neighbor lists alone, never a
// count. Each slot's points are joined through its first point, so the
// sets are point sets, ready to return as clusters. A link through r
// joins every pair of points in N(r) (the paper's pair counting), so two
// points are linked exactly when some list holds both, whatever the
// lists' symmetry: the components are the union of each list's members.
// A list's running root is cached, so a member already in its set costs
// one Find instead of a Union.
func listComponents(nb *similarity.Neighbors, slotOf []int32, slots int) *unionfind.Forest {
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
	}
	for _, list := range nb.Lists {
		if len(list) < 2 {
			continue
		}
		root := uf.Find(int(list[0]))
		for _, j := range list[1:] {
			if rj := uf.Find(int(j)); rj != root {
				uf.Union(root, rj)
				root = uf.Find(root)
			}
		}
	}
	return uf
}

// componentsResult is the merge loop's result when it ends at the
// components of uf (mergePhase): one cluster per component after
// slots − c merges, stopped early exactly when c > K.
func componentsResult(uf *unionfind.Forest, slots int, cfg Config) (engineResult, error) {
	if err := checkPowTable(cfg.Goodness, uf.Len(), cfg.fval()); err != nil {
		return engineResult{}, err
	}
	c := uf.Count()
	return engineResult{clusters: uf.Components(), merges: slots - c, stoppedEarly: c > cfg.K}, nil
}

// arenaMerge builds the arena over the link table lt and runs the merge
// loop on it.
func arenaMerge(lt *linkage.Compact, slotOf []int32, slots int, cfg Config, trigger int) (engineResult, error) {
	a, err := newArena(lt, slotOf, slots, cfg.Goodness, cfg.fval())
	if err != nil {
		return engineResult{}, err
	}
	return runAgglomeration(a, cfg.K, trigger, cfg.WeedMaxSize, cfg.TraceMerges), nil
}

// BenchAgglomerateArena runs the merge over a prebuilt CSR link table
// from singleton slots, with the default GoodnessROCK and no weeding or
// trace, exported for perfbench, whose --trace 1 run times it as the
// core.merge span. It counts the link graph's components from the table
// it is given and returns them when they number K or more, and runs the
// arena otherwise, so its clusters and merges are Cluster's. The
// pipeline no longer counts components this way: mergePhase counts
// them from the neighbor lists, before any table exists. It panics
// where the pipeline would return an error.
func BenchAgglomerateArena(n int, lt *linkage.Compact, k int, f float64) (clusters, merges int) {
	slotOf := make([]int32, n)
	for i := range slotOf {
		slotOf[i] = int32(i)
	}
	cfg := Config{K: k, F: ConstantF(f)}.withDefaults()
	uf := unionfind.New(n)
	for i := 0; i < n; i++ {
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
	var res engineResult
	var err error
	if componentsEnd(cfg, uf.Count(), 0) {
		res, err = componentsResult(uf, n, cfg)
	} else {
		res, err = arenaMerge(lt, slotOf, n, cfg, 0)
	}
	if err != nil {
		panic(err)
	}
	return len(res.clusters), res.merges
}
