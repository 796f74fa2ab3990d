package core

import (
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
)

// tableFromPairs builds a symmetric CSR link table from explicit pair
// counts.
func tableFromPairs(n int, pairs map[[2]int]int) *linkage.Compact {
	t := &linkage.Table{Adj: make([]map[int32]int32, n)}
	for i := 0; i < n; i++ {
		t.Adj[i] = make(map[int32]int32)
	}
	for p, c := range pairs {
		t.Adj[p[0]][int32(p[1])] = int32(c)
		t.Adj[p[1]][int32(p[0])] = int32(c)
	}
	return linkage.CompactFrom(t)
}

func TestAgglomerateTwoCliques(t *testing.T) {
	// Points 0-2 pairwise linked, 3-5 pairwise linked, nothing across.
	pairs := map[[2]int]int{
		{0, 1}: 3, {0, 2}: 3, {1, 2}: 3,
		{3, 4}: 3, {3, 5}: 3, {4, 5}: 3,
	}
	lt := tableFromPairs(6, pairs)
	res := agglomerate(6, lt, 2, GoodnessROCK, 1.0/3.0, 0, 0, false)
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(res.clusters, want) {
		t.Fatalf("clusters = %v, want %v", res.clusters, want)
	}
	if res.stoppedEarly {
		t.Fatal("should reach k=2 without stopping early")
	}
	if res.merges != 4 {
		t.Fatalf("merges = %d, want 4", res.merges)
	}
}

func TestAgglomerateStopsWithoutCrossLinks(t *testing.T) {
	pairs := map[[2]int]int{{0, 1}: 1, {2, 3}: 1}
	res := agglomerate(4, tableFromPairs(4, pairs), 1, GoodnessROCK, 0.3, 0, 0, false)
	if !res.stoppedEarly {
		t.Fatal("must stop early when no links connect the components")
	}
	if len(res.clusters) != 2 {
		t.Fatalf("clusters = %v, want two components", res.clusters)
	}
}

func TestAgglomerateGoodnessOrder(t *testing.T) {
	// A chain where the strongest pair must merge first: link(1,2)=5,
	// link(0,1)=1, link(2,3)=1. With k=2 the result must be {0} merged
	// last; check final shape {0,1,2} / {3} or {0}/{1,2,3} by goodness.
	pairs := map[[2]int]int{{0, 1}: 1, {1, 2}: 5, {2, 3}: 1}
	res := agglomerate(4, tableFromPairs(4, pairs), 2, GoodnessROCK, 1.0/3.0, 0, 0, false)
	// First merge is certainly {1,2}. The second merge picks between
	// attaching 0 or 3 (identical goodness by symmetry) — the tie breaks
	// deterministically toward the smaller cluster id (0 joined earlier).
	if len(res.clusters) != 2 {
		t.Fatalf("clusters = %v", res.clusters)
	}
	sizes := map[int]bool{len(res.clusters[0]): true, len(res.clusters[1]): true}
	if !sizes[1] || !sizes[3] {
		t.Fatalf("want a 3-1 split, got %v", res.clusters)
	}
}

func TestAgglomerateDeterministic(t *testing.T) {
	pairs := map[[2]int]int{
		{0, 1}: 2, {1, 2}: 2, {0, 2}: 1, {2, 3}: 1,
		{4, 5}: 2, {5, 6}: 2, {3, 4}: 1,
	}
	a := agglomerate(7, tableFromPairs(7, pairs), 2, GoodnessROCK, 0.25, 0, 0, false)
	for trial := 0; trial < 10; trial++ {
		b := agglomerate(7, tableFromPairs(7, pairs), 2, GoodnessROCK, 0.25, 0, 0, false)
		if !reflect.DeepEqual(a.clusters, b.clusters) || a.merges != b.merges {
			t.Fatalf("nondeterministic agglomeration: %v vs %v", a.clusters, b.clusters)
		}
	}
}

func TestAgglomerateWeeding(t *testing.T) {
	// Two strong 3-cliques plus a weakly attached straggler pair 6,7
	// linked only to each other.
	pairs := map[[2]int]int{
		{0, 1}: 4, {0, 2}: 4, {1, 2}: 4,
		{3, 4}: 4, {3, 5}: 4, {4, 5}: 4,
		{6, 7}: 1,
	}
	// weedTrigger 4: when active clusters reach 4 (after 4 merges of the
	// cliques), clusters of size ≤ 2 — the {6,7} pair — are discarded.
	res := agglomerate(8, tableFromPairs(8, pairs), 2, GoodnessROCK, 1.0/3.0, 4, 2, false)
	if !reflect.DeepEqual(res.weeded, []int{6, 7}) {
		t.Fatalf("weeded = %v, want [6 7]", res.weeded)
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5}}
	if !reflect.DeepEqual(res.clusters, want) {
		t.Fatalf("clusters = %v, want %v", res.clusters, want)
	}
}

func TestAgglomerateKOne(t *testing.T) {
	pairs := map[[2]int]int{{0, 1}: 1, {1, 2}: 1, {0, 2}: 1}
	res := agglomerate(3, tableFromPairs(3, pairs), 1, GoodnessROCK, 0.3, 0, 0, false)
	if len(res.clusters) != 1 || len(res.clusters[0]) != 3 {
		t.Fatalf("clusters = %v", res.clusters)
	}
}

// The paper's worked example: size-3 subsets of {1,2,3,4,5} form one
// cluster, the {1,2,6,7} family another. With θ=0.5 several cross pairs
// are neighbors (sim exactly 0.5), so naive similarity-based merging is
// confused — but links separate the two groups.
func TestPaperExampleSeparation(t *testing.T) {
	tr := func(items ...dataset.Item) dataset.Transaction { return dataset.NewTransaction(items...) }
	ts := []dataset.Transaction{
		tr(1, 2, 3), tr(1, 2, 4), tr(1, 2, 5), tr(1, 3, 4), tr(1, 3, 5),
		tr(1, 4, 5), tr(2, 3, 4), tr(2, 3, 5), tr(2, 4, 5), tr(3, 4, 5),
		tr(1, 2, 6), tr(1, 2, 7), tr(1, 6, 7), tr(2, 6, 7),
	}
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	lt := linkage.Build(nb, linkage.Options{})
	res := agglomerate(len(ts), lt, 2, GoodnessROCK, MarketBasketF(0.5), 0, 0, false)
	if len(res.clusters) != 2 {
		t.Fatalf("clusters = %v", res.clusters)
	}
	// Transactions 10 ({1,2,6}) and 11 ({1,2,7}) straddle the border —
	// they are θ-neighbors of several {1,2,x} subsets — so ROCK may pull
	// them either way. The robust claims are: the {1..5}-cluster stays
	// together, and the {1,6,7}/{2,6,7} core of the family is never
	// absorbed into it.
	big := res.clusters[0]
	if len(big) < 10 {
		t.Fatalf("first cluster lost {1..5}-subsets: %v", res.clusters)
	}
	for _, p := range big {
		if p == 12 || p == 13 {
			t.Fatalf("family core absorbed into the wrong cluster: %v", res.clusters)
		}
	}
	for _, p := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9} {
		if res.clusters[0][p] != p {
			t.Fatalf("{1..5}-subsets split: %v", res.clusters)
		}
	}
	// The criterion value of what greedy ROCK found must be at least that
	// of the ground-truth split — greedy optimizes E_l and on this
	// instance absorbing the border transactions is genuinely E_l-better.
	truth := [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {10, 11, 12, 13}}
	f := MarketBasketF(0.5)
	if got, want := Criterion(res.clusters, lt.Get, f), Criterion(truth, lt.Get, f); got < want-1e-9 {
		t.Fatalf("greedy criterion %g below ground truth %g", got, want)
	}
}

func TestAgglomerateEmptyAndSingle(t *testing.T) {
	res := agglomerate(0, linkage.CompactFrom(&linkage.Table{}), 1, GoodnessROCK, 0.3, 0, 0, false)
	if len(res.clusters) != 0 {
		t.Fatal("empty input should give no clusters")
	}
	res = agglomerate(1, tableFromPairs(1, nil), 1, GoodnessROCK, 0.3, 0, 0, false)
	if len(res.clusters) != 1 || res.clusters[0][0] != 0 {
		t.Fatalf("single point: %v", res.clusters)
	}
}
