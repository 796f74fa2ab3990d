package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestResultJSONRoundTrip(t *testing.T) {
	ts, _ := groupedData(2, 25, 81)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 2, Seed: 1, MinNeighbors: 1, TraceMerges: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Assign, res.Assign) ||
		!reflect.DeepEqual(got.Clusters, res.Clusters) ||
		!reflect.DeepEqual(got.Outliers, res.Outliers) ||
		!reflect.DeepEqual(got.MergeTrace, res.MergeTrace) ||
		!reflect.DeepEqual(got.TracePoints, res.TracePoints) {
		t.Fatal("round trip changed the result")
	}
	if got.Stats != res.Stats {
		t.Fatalf("stats changed: %+v vs %+v", got.Stats, res.Stats)
	}
}

// TestReadResultWithRetiredStatsKeys: a version-1 result written while
// Stats still carried the MinHash/LSH ledger (LSHCandidatePairs,
// LSHVerifiedEdges, LSHRecallSampled, LSHRecall) still loads, with every
// remaining field intact; the retired keys are ignored.
func TestReadResultWithRetiredStatsKeys(t *testing.T) {
	const old = `{"version":1,"result":{"Assign":[0,0,0,0,1,1,1,1],"Clusters":[[0,1,2,3],[4,5,6,7]],"Outliers":null,"SampleIdx":null,"MergeTrace":null,"TracePoints":null,"LabelSets":null,"Stats":{"N":8,"Sampled":8,"Pruned":0,"Weeded":0,"LabelCandidates":0,"Labeled":0,"Unlabeled":0,"AvgNeighbors":3,"MaxNeighbors":3,"LinkPairs":12,"LinkEntries":24,"Merges":6,"LSHCandidatePairs":12,"LSHVerifiedEdges":12,"LSHRecallSampled":8,"LSHRecall":1,"StoppedEarly":false,"ClustersFound":2,"FVal":0.5384615384615384}}}`
	got, err := ReadResult(strings.NewReader(old))
	if err != nil {
		t.Fatal(err)
	}
	want := &Result{
		Assign:   []int{0, 0, 0, 0, 1, 1, 1, 1},
		Clusters: [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}},
		Stats: Stats{N: 8, Sampled: 8, AvgNeighbors: 3, MaxNeighbors: 3, LinkPairs: 12, LinkEntries: 24,
			Merges: 6, ClustersFound: 2, FVal: 0.5384615384615384},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v, want %+v", got, want)
	}
	var buf bytes.Buffer
	if err := WriteResult(&buf, got); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "LSH") {
		t.Fatalf("rewritten result keeps a retired key: %s", buf.String())
	}
}

func TestReadResultRejectsGarbage(t *testing.T) {
	if _, err := ReadResult(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadResult(strings.NewReader(`{"version": 99, "result": {}}`)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := ReadResult(strings.NewReader(`{"version": 1}`)); err == nil {
		t.Fatal("missing payload accepted")
	}
}
