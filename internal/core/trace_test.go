package core

import (
	"reflect"
	"strings"
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

// TestCutTraceErrors: CutTrace rejects a cut below one cluster, a
// negative n, and a trace the engine cannot record, a failing step past
// the cut included, and cuts an engine trace at every k.
func TestCutTraceErrors(t *testing.T) {
	pairs := map[[2]int]int{{0, 1}: 3, {2, 3}: 2, {1, 2}: 1}
	engine := agglomerate(4, tableFromPairs(4, pairs), 1, GoodnessROCK, 0.5, 0, 0, true).trace
	for _, c := range []struct {
		name    string
		n       int
		steps   []MergeStep
		k       int
		want    [][]int
		wantErr string
	}{
		{name: "k=0", n: 3, k: 0, wantErr: "k=0"},
		{name: "negative n", n: -1, k: 1, wantErr: "n=-1"},
		{name: "unknown clusters", n: 3, steps: []MergeStep{{A: 40, B: 41, Into: 3}}, k: 1, wantErr: "not two live"},
		{name: "A == B", n: 3, steps: []MergeStep{{A: 0, B: 1, Into: 3}, {A: 3, B: 3, Into: 4}}, k: 1, wantErr: "not two live"},
		{name: "merged-away cluster", n: 3, steps: []MergeStep{{A: 0, B: 1, Into: 3}, {A: 0, B: 2, Into: 4}}, k: 1, wantErr: "not two live"},
		{name: "Into below n", n: 3, steps: []MergeStep{{A: 0, B: 1, Into: 2}, {A: 2, B: 2, Into: 3}}, k: 1, wantErr: "into cluster 2, want 3"},
		{name: "Into skips an id", n: 4, steps: []MergeStep{{A: 0, B: 1, Into: 4}, {A: 2, B: 3, Into: 6}}, k: 1, wantErr: "into cluster 6, want 5"},
		{name: "Into takes a live id", n: 4, steps: []MergeStep{{A: 0, B: 1, Into: 2}, {A: 2, B: 3, Into: 5}}, k: 1, wantErr: "into cluster 2, want 4"},
		{name: "bad step past the cut", n: 3, steps: []MergeStep{{A: 0, B: 1, Into: 3}, {A: 3, B: 3, Into: 4}}, k: 2, wantErr: "not two live"},
		{name: "engine trace k=4", n: 4, steps: engine, k: 4, want: [][]int{{0}, {1}, {2}, {3}}},
		{name: "engine trace k=3", n: 4, steps: engine, k: 3, want: [][]int{{0, 1}, {2}, {3}}},
		{name: "engine trace k=2", n: 4, steps: engine, k: 2, want: [][]int{{0, 1}, {2, 3}}},
		{name: "engine trace k=1", n: 4, steps: engine, k: 1, want: [][]int{{0, 1, 2, 3}}},
		{name: "no points", n: 0, k: 1, want: [][]int{}},
	} {
		got, err := CutTrace(c.n, c.steps, c.k)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("%s: CutTrace = %v, %v; want an error naming %q", c.name, got, err, c.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: CutTrace = %v, %v; want %v", c.name, got, err, c.want)
		}
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
