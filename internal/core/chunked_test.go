package core

import (
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

func TestChunkedClusterRecoversGroups(t *testing.T) {
	// Interleave three groups so every chunk sees all of them.
	tsA, truthA := groupedData(3, 120, 71)
	ts := make([]dataset.Transaction, 0, len(tsA))
	truth := make([]int, 0, len(truthA))
	for i := 0; i < 120; i++ {
		for g := 0; g < 3; g++ {
			ts = append(ts, tsA[g*120+i])
			truth = append(truth, g)
		}
	}
	res, err := ChunkedCluster(ts, ChunkedConfig{
		Base:      Config{Theta: 0.3, K: 3, Seed: 5},
		ChunkSize: 60,
		Reps:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 3 {
		t.Fatalf("found %d clusters, want 3", res.K())
	}
	mis := 0
	for _, members := range res.Clusters {
		counts := map[int]int{}
		for _, p := range members {
			counts[truth[p]]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		mis += len(members) - best
	}
	if mis > len(ts)/50 {
		t.Fatalf("%d of %d points misassigned", mis, len(ts))
	}
}

func TestChunkedClusterDeterminism(t *testing.T) {
	ts, _ := groupedData(2, 80, 73)
	cfg := ChunkedConfig{Base: Config{Theta: 0.3, K: 2, Seed: 9}, ChunkSize: 50}
	a, err := ChunkedCluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ChunkedCluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("chunked clustering nondeterministic")
		}
	}
}

func TestChunkedClusterValidation(t *testing.T) {
	ts, _ := groupedData(1, 10, 74)
	if _, err := ChunkedCluster(ts, ChunkedConfig{Base: Config{Theta: 0.3, K: 1}, ChunkSize: 1}); err == nil {
		t.Fatal("chunk size 1 accepted")
	}
	if _, err := ChunkedCluster(ts, ChunkedConfig{Base: Config{Theta: 2, K: 1}, ChunkSize: 5}); err == nil {
		t.Fatal("invalid base config accepted")
	}
	res, err := ChunkedCluster(nil, ChunkedConfig{Base: Config{Theta: 0.3, K: 2}, ChunkSize: 5})
	if err != nil || res.K() != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestChunkedClusterOutliersPropagate(t *testing.T) {
	ts, _ := groupedData(2, 30, 75)
	// Junk points with unique items in every chunk position.
	for j := 0; j < 6; j++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(900+2*j), dataset.Item(901+2*j)))
	}
	res, err := ChunkedCluster(ts, ChunkedConfig{
		Base:      Config{Theta: 0.3, K: 2, MinNeighbors: 2, Seed: 3},
		ChunkSize: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if len(res.Outliers) < 6 {
		t.Fatalf("outliers = %d, want ≥ 6 junk points", len(res.Outliers))
	}
}
