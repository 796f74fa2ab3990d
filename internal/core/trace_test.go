package core

import (
	"reflect"
	"testing"
)

func TestTraceRecordsMerges(t *testing.T) {
	pairs := map[[2]int]int{
		{0, 1}: 3, {0, 2}: 3, {1, 2}: 3,
		{3, 4}: 3, {3, 5}: 3, {4, 5}: 3,
	}
	res := agglomerate(6, tableFromPairs(6, pairs), 2, GoodnessROCK, 1.0/3.0, 0, 0, true)
	if len(res.trace) != 4 {
		t.Fatalf("trace has %d steps, want 4", len(res.trace))
	}
	// Steps allocate fresh ids in order and record pre-merge sizes.
	for i, s := range res.trace {
		if s.Into != 6+i {
			t.Fatalf("step %d Into = %d, want %d", i, s.Into, 6+i)
		}
		if s.SizeA < 1 || s.SizeB < 1 || s.Links < 1 || s.Goodness <= 0 {
			t.Fatalf("step %d implausible: %+v", i, s)
		}
		if s.Remaining != 6-(i+1) {
			t.Fatalf("step %d Remaining = %d", i, s.Remaining)
		}
	}
}

func TestCutTraceReproducesEveryK(t *testing.T) {
	pairs := map[[2]int]int{
		{0, 1}: 4, {1, 2}: 3, {0, 2}: 3, {2, 3}: 1,
		{4, 5}: 4, {5, 6}: 3, {3, 4}: 1,
	}
	full := agglomerate(7, tableFromPairs(7, pairs), 1, GoodnessROCK, 0.3, 0, 0, true)
	// Cutting at k must match a fresh run at that k, for every reachable k.
	for k := 1; k <= 7; k++ {
		fresh := agglomerate(7, tableFromPairs(7, pairs), k, GoodnessROCK, 0.3, 0, 0, false)
		cut, err := CutTrace(7, full.trace, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cut, fresh.clusters) {
			t.Fatalf("k=%d: cut %v != fresh %v", k, cut, fresh.clusters)
		}
	}
}

func TestCutTraceErrors(t *testing.T) {
	if _, err := CutTrace(3, nil, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad := []MergeStep{{A: 40, B: 41, Into: 42}}
	if _, err := CutTrace(3, bad, 1); err == nil {
		t.Fatal("corrupt trace accepted")
	}
}

func TestClusterTraceThroughPipeline(t *testing.T) {
	ts, _ := groupedData(3, 20, 31)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1, TraceMerges: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TracePoints) != len(ts) {
		t.Fatalf("TracePoints = %d, want %d", len(res.TracePoints), len(ts))
	}
	if len(res.MergeTrace) != res.Stats.Merges {
		t.Fatalf("trace %d steps, stats %d merges", len(res.MergeTrace), res.Stats.Merges)
	}
	// Cutting the trace at the final k reproduces the result's clusters
	// (mapped through TracePoints).
	cut, err := CutTrace(len(res.TracePoints), res.MergeTrace, res.K())
	if err != nil {
		t.Fatal(err)
	}
	if len(cut) != res.K() {
		t.Fatalf("cut k = %d, want %d", len(cut), res.K())
	}
	for ci, members := range cut {
		mapped := make([]int, len(members))
		for i, l := range members {
			mapped[i] = res.TracePoints[l]
		}
		if !reflect.DeepEqual(mapped, res.Clusters[ci]) {
			t.Fatalf("cluster %d: cut %v != result %v", ci, mapped, res.Clusters[ci])
		}
	}
	// Cutting higher gives a finer partition of the same points.
	finer, err := CutTrace(len(res.TracePoints), res.MergeTrace, res.K()+2)
	if err != nil {
		t.Fatal(err)
	}
	if len(finer) != res.K()+2 {
		t.Fatalf("finer cut k = %d", len(finer))
	}
}

func TestLabelOutliersRecoversPrunedPoints(t *testing.T) {
	ts, truth := groupedData(2, 30, 33)
	// Aggressive pruning without LabelOutliers: pruned points stay out.
	strict, err := Cluster(ts, Config{Theta: 0.3, K: 2, MinNeighbors: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(strict.Outliers) == 0 {
		t.Skip("pruning did not fire; tighten MinNeighbors")
	}
	relabel, err := Cluster(ts, Config{Theta: 0.3, K: 2, MinNeighbors: 12, Seed: 1, LabelOutliers: true, LabelFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, relabel, len(ts))
	if len(relabel.Outliers) >= len(strict.Outliers) {
		t.Fatalf("LabelOutliers recovered nothing: %d -> %d", len(strict.Outliers), len(relabel.Outliers))
	}
	// Recovered points must land in the right group.
	for p, ci := range relabel.Assign {
		if ci < 0 || strict.Assign[p] >= 0 {
			continue
		}
		members := relabel.Clusters[ci]
		if truth[members[0]] != truth[p] {
			t.Fatalf("point %d relabeled into wrong group", p)
		}
	}
}

func TestLabelOutliersWithSampling(t *testing.T) {
	ts, _ := groupedData(3, 100, 35)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, SampleSize: 120, MinNeighbors: 5,
		Seed: 2, LabelOutliers: true, LabelFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 3 {
		t.Fatalf("k = %d", res.K())
	}
}
