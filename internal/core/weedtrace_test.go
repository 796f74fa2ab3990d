package core

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

// weedTraceTable: two strong 4-cliques plus a straggler pair that merges
// early (strongest links) and is then weeded. Tracing is on, so the
// straggler's merge IS in the dendrogram even though its product is
// discarded — the combination under test.
func weedTraceTable() (int, map[[2]int]int) {
	pairs := map[[2]int]int{
		{0, 1}: 2, {0, 2}: 2, {0, 3}: 2, {1, 2}: 2, {1, 3}: 2, {2, 3}: 2,
		{4, 5}: 2, {4, 6}: 2, {4, 7}: 2, {5, 6}: 2, {5, 7}: 2, {6, 7}: 2,
		{8, 9}: 9,
	}
	return 10, pairs
}

// TestTraceWithWeeding verifies the engine-level contract when TraceMerges
// and weeding are combined: the trace records every merge (including
// merges whose product is later weeded), weeded points appear in no
// cluster, and replaying the full trace over a union-find yields exactly
// the surviving clusters plus the weeded groups as separate components.
func TestTraceWithWeeding(t *testing.T) {
	n, pairs := weedTraceTable()
	lt := tableFromPairs(n, pairs)
	// The straggler pair merges first; cliques complete after 6 more
	// merges; at 3 active clusters weeding discards the size-2 straggler.
	res := agglomerate(n, lt, 2, GoodnessROCK, 1.0/3.0, 3, 2, true)
	if !reflect.DeepEqual(res.weeded, []int{8, 9}) {
		t.Fatalf("weeded = %v, want [8 9]", res.weeded)
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}}
	if !reflect.DeepEqual(res.clusters, want) {
		t.Fatalf("clusters = %v, want %v", res.clusters, want)
	}
	if len(res.trace) != res.merges {
		t.Fatalf("trace has %d steps, merges = %d", len(res.trace), res.merges)
	}
	// The weeded pair's merge is part of the dendrogram.
	foundStraggler := false
	for _, s := range res.trace {
		if s.A == 8 && s.B == 9 {
			foundStraggler = true
		}
	}
	if !foundStraggler {
		t.Fatal("trace omits the weeded pair's merge")
	}

	// Replaying the whole trace: every surviving cluster is a component,
	// and the weeded pair is its own component disjoint from all clusters.
	comps, err := CutTrace(n, res.trace, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != n-res.merges {
		t.Fatalf("full replay has %d components, want %d", len(comps), n-res.merges)
	}
	for _, cl := range res.clusters {
		found := false
		for _, comp := range comps {
			if reflect.DeepEqual(comp, cl) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("cluster %v is not a component of the replay %v", cl, comps)
		}
	}
	found := false
	for _, comp := range comps {
		if reflect.DeepEqual(comp, []int{8, 9}) {
			found = true
		}
	}
	if !found {
		t.Fatalf("weeded group {8,9} missing from replay %v", comps)
	}
}

// TestCutTraceOnWeededDendrogram documents CutTrace's semantics over a
// weeded run: the cut counts weeded groups as components (CutTrace knows
// merges, not discards), so cutting at the result's k returns k plus the
// number of weeded groups, and cutting coarser stops at that floor
// because no further merge steps exist.
func TestCutTraceOnWeededDendrogram(t *testing.T) {
	n, pairs := weedTraceTable()
	lt := tableFromPairs(n, pairs)
	res := agglomerate(n, lt, 2, GoodnessROCK, 1.0/3.0, 3, 2, true)
	floor := n - res.merges // 2 clusters + 1 weeded group

	cut, err := CutTrace(n, res.trace, len(res.clusters))
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != floor {
		t.Fatalf("cut at k=%d gives %d components, want the weeded floor %d",
			len(res.clusters), len(cut), floor)
	}
	// Cutting finer than the floor splits clusters but never resurrects
	// weeded members into them.
	finer, err := CutTrace(n, res.trace, floor+2)
	if err != nil {
		t.Fatal(err)
	}
	if len(finer) != floor+2 {
		t.Fatalf("finer cut gives %d components, want %d", len(finer), floor+2)
	}
	for _, comp := range finer {
		hasWeeded, hasClustered := false, false
		for _, p := range comp {
			if p == 8 || p == 9 {
				hasWeeded = true
			} else {
				hasClustered = true
			}
		}
		if hasWeeded && hasClustered {
			t.Fatalf("component %v mixes weeded and clustered points", comp)
		}
	}
}

// TestClusterTraceWithWeedingPipeline runs the full pipeline with
// TraceMerges and WeedAt together — previously untested — and checks the
// result-level contract: the trace pairs with TracePoints, weeded points
// are outliers, and replaying the trace reproduces every final cluster.
func TestClusterTraceWithWeedingPipeline(t *testing.T) {
	ts, _ := groupedData(3, 25, 41)
	// A few isolated points that weeding should discard: items from a
	// pool no group uses.
	for i := 0; i < 3; i++ {
		ts = append(ts, dataset.NewTransaction(
			dataset.Item(100+10*i), dataset.Item(101+10*i), dataset.Item(102+10*i)))
	}
	res, err := Cluster(ts, Config{
		Theta: 0.3, K: 3, Seed: 5,
		TraceMerges: true,
		WeedAt:      0.2, WeedMaxSize: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.Stats.Weeded == 0 {
		t.Fatal("weeding did not fire; the isolated points should be weeded (or pruned earlier)")
	}
	if len(res.MergeTrace) != res.Stats.Merges {
		t.Fatalf("trace %d steps, stats %d merges", len(res.MergeTrace), res.Stats.Merges)
	}
	if len(res.TracePoints) == 0 {
		t.Fatal("TracePoints empty with TraceMerges set")
	}
	// Replay the dendrogram: each result cluster must be a component.
	comps, err := CutTrace(len(res.TracePoints), res.MergeTrace, 1)
	if err != nil {
		t.Fatal(err)
	}
	for ci, members := range res.Clusters {
		mapped := map[int]bool{}
		for _, p := range members {
			mapped[p] = true
		}
		found := false
		for _, comp := range comps {
			global := make([]int, len(comp))
			for i, l := range comp {
				global[i] = res.TracePoints[l]
			}
			if len(global) == len(members) {
				all := true
				for _, g := range global {
					if !mapped[g] {
						all = false
						break
					}
				}
				if all {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("cluster %d (%v) is not a replay component", ci, members)
		}
	}
}

// TestWeedingDeterministicWithTrace reruns a weeded, traced agglomeration
// and requires identical traces — the weeding path must not perturb merge
// ids or ordering.
func TestWeedingDeterministicWithTrace(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(40)
		lt := randomLinkTable(r, n)
		trigger := 1 + r.Intn(n)
		a := agglomerate(n, lt, 1, GoodnessROCK, 0.3, trigger, 2, true)
		b := agglomerate(n, lt, 1, GoodnessROCK, 0.3, trigger, 2, true)
		if !reflect.DeepEqual(a.trace, b.trace) || !reflect.DeepEqual(a.weeded, b.weeded) {
			t.Fatalf("trial %d: nondeterministic weeded trace", trial)
		}
	}
}
