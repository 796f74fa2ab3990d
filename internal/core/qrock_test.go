package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

func TestQRockComponents(t *testing.T) {
	ts, truth := groupedData(3, 25, 21)
	res, err := QRock(ts, QRockConfig{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 3 {
		t.Fatalf("components = %d, want 3", res.K())
	}
	for _, members := range res.Clusters {
		g := truth[members[0]]
		for _, p := range members {
			if truth[p] != g {
				t.Fatal("component mixes groups")
			}
		}
	}
}

func TestQRockMinClusterSize(t *testing.T) {
	// Deterministic components: two 4-cliques of near-identical
	// transactions plus an isolated pair.
	tr := func(items ...dataset.Item) dataset.Transaction { return dataset.NewTransaction(items...) }
	ts := []dataset.Transaction{
		tr(1, 2, 3), tr(1, 2, 3, 4), tr(1, 2, 4), tr(2, 3, 4),
		tr(10, 11, 12), tr(10, 11, 13), tr(10, 12, 13), tr(11, 12, 13),
		tr(500, 501), tr(500, 501),
	}
	res, err := QRock(ts, QRockConfig{Theta: 0.4, MinClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 2 {
		t.Fatalf("k = %d, want 2 (clusters %v)", res.K(), res.Clusters)
	}
	if len(res.Outliers) != 2 || res.Outliers[0] != 8 || res.Outliers[1] != 9 {
		t.Fatalf("outliers = %v, want [8 9]", res.Outliers)
	}
}

func TestQRockValidation(t *testing.T) {
	if _, err := QRock(nil, QRockConfig{Theta: -1}); err == nil {
		t.Fatal("invalid theta accepted")
	}
	if _, err := QRock(nil, QRockConfig{Theta: math.NaN()}); err == nil {
		t.Fatal("NaN theta accepted")
	}
	res, err := QRock(nil, QRockConfig{Theta: 0.5})
	if err != nil || res.K() != 0 {
		t.Fatal("empty input mishandled")
	}
}

// QROCK's defining property: with self-inclusive neighbor lists, ROCK run
// to k=1 without pruning/weeding merges exactly the connected components
// of the θ-neighbor graph. (Self-inclusion makes every neighbor edge a
// positive link: the two endpoints are common neighbors of the pair.)
func TestQRockMatchesRockAtKOne(t *testing.T) {
	ts, _ := groupedData(4, 15, 23)
	rockRes, err := Cluster(ts, Config{Theta: 0.3, K: 1, IncludeSelf: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	qRes, err := QRock(ts, QRockConfig{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rockRes.Clusters, qRes.Clusters) {
		t.Fatalf("ROCK(k=1, self) %v != QROCK %v", rockRes.Clusters, qRes.Clusters)
	}
}

// TestQRockMatchesRockAtKOneProperty is the differential form of the
// equivalence QRock's doc states: over random transactions, thresholds and
// built-in measures, ROCK with IncludeSelf, K=1 and no pruning or weeding
// ends at exactly QRock's components.
func TestQRockMatchesRockAtKOneProperty(t *testing.T) {
	measures := []struct {
		name string
		m    similarity.Measure
	}{
		{"jaccard", nil},
		{"dice", similarity.Dice},
		{"cosine", similarity.Cosine},
		{"overlap", similarity.Overlap},
	}
	for trial := int64(0); trial < 60; trial++ {
		r := rand.New(rand.NewSource(trial))
		ts := randomTransactionsCore(r, 1+r.Intn(120), 1+r.Intn(7), 5+r.Intn(40))
		theta := 0.1 + 0.85*r.Float64()
		me := measures[r.Intn(len(measures))]
		label := fmt.Sprintf("trial=%d n=%d theta=%.3f measure=%s", trial, len(ts), theta, me.name)
		rockRes, err := Cluster(ts, Config{Theta: theta, K: 1, IncludeSelf: true, Measure: me.m, Seed: trial})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		qRes, err := QRock(ts, QRockConfig{Theta: theta, Measure: me.m})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(rockRes.Clusters, qRes.Clusters) || !reflect.DeepEqual(rockRes.Assign, qRes.Assign) {
			t.Fatalf("%s: ROCK(k=1, self) %v != QROCK %v", label, rockRes.Clusters, qRes.Clusters)
		}
	}
}

// TestQRockRockWithoutSelfDiverges pins the precondition: two identical
// points are each other's only θ-neighbor, so without IncludeSelf they
// share no link and ROCK stops at two singletons, while QRock (and ROCK
// with IncludeSelf) joins them.
func TestQRockRockWithoutSelfDiverges(t *testing.T) {
	ts := []dataset.Transaction{
		dataset.NewTransaction(1, 2),
		dataset.NewTransaction(1, 2),
	}
	q, err := QRock(ts, QRockConfig{Theta: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0, 1}}; !reflect.DeepEqual(q.Clusters, want) {
		t.Fatalf("QRock clusters %v, want %v", q.Clusters, want)
	}
	plain, err := Cluster(ts, Config{Theta: 0.5, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0}, {1}}; !reflect.DeepEqual(plain.Clusters, want) || !plain.Stats.StoppedEarly || plain.Stats.LinkPairs != 0 {
		t.Fatalf("ROCK without IncludeSelf: clusters %v, stopped early %v, link pairs %d; want %v, true, 0",
			plain.Clusters, plain.Stats.StoppedEarly, plain.Stats.LinkPairs, want)
	}
	self, err := Cluster(ts, Config{Theta: 0.5, K: 1, IncludeSelf: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(self.Clusters, q.Clusters) {
		t.Fatalf("ROCK with IncludeSelf %v != QRock %v", self.Clusters, q.Clusters)
	}
}
