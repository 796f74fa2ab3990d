package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// groupedData synthesizes ngroups well-separated transaction groups of the
// given size: group g draws its items from a private pool. Returns the
// transactions and the ground-truth group of each.
func groupedData(ngroups, size int, seed int64) ([]dataset.Transaction, []int) {
	r := rand.New(rand.NewSource(seed))
	var ts []dataset.Transaction
	var truth []int
	const poolSize = 12
	for g := 0; g < ngroups; g++ {
		base := g * poolSize
		for i := 0; i < size; i++ {
			// 6 items from the group pool: any two transactions of a group
			// share ≥ 1 item with high probability, and Jaccard within the
			// group is far above across groups (which share nothing).
			items := make([]dataset.Item, 0, 6)
			for len(items) < 6 {
				items = append(items, dataset.Item(base+r.Intn(poolSize)))
			}
			ts = append(ts, dataset.NewTransaction(items...))
			truth = append(truth, g)
		}
	}
	return ts, truth
}

// checkPartition verifies the structural invariants every Result must
// satisfy: Assign, Clusters and Outliers together partition the input.
func checkPartition(t *testing.T, res *Result, n int) {
	t.Helper()
	seen := make([]int, n) // 0 unseen, 1 cluster, 2 outlier
	for ci, members := range res.Clusters {
		for _, p := range members {
			if seen[p] != 0 {
				t.Fatalf("point %d appears twice", p)
			}
			seen[p] = 1
			if res.Assign[p] != ci {
				t.Fatalf("Assign[%d] = %d, want %d", p, res.Assign[p], ci)
			}
		}
	}
	for _, p := range res.Outliers {
		if seen[p] != 0 {
			t.Fatalf("outlier %d also clustered", p)
		}
		seen[p] = 2
		if res.Assign[p] != -1 {
			t.Fatalf("outlier %d has Assign %d", p, res.Assign[p])
		}
	}
	for p := 0; p < n; p++ {
		if seen[p] == 0 {
			t.Fatalf("point %d neither clustered nor outlier", p)
		}
	}
}

func TestClusterSeparableGroups(t *testing.T) {
	ts, truth := groupedData(3, 40, 1)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 3 {
		t.Fatalf("found %d clusters, want 3", res.K())
	}
	// Each discovered cluster must be pure with respect to truth.
	for ci, members := range res.Clusters {
		g0 := truth[members[0]]
		for _, p := range members {
			if truth[p] != g0 {
				t.Fatalf("cluster %d mixes groups %d and %d", ci, g0, truth[p])
			}
		}
		if len(members) != 40 {
			t.Fatalf("cluster %d has %d members, want 40", ci, len(members))
		}
	}
	if res.Stats.StoppedEarly {
		t.Fatal("unexpected early stop")
	}
}

func TestClusterPrunesIsolatedPoints(t *testing.T) {
	ts, _ := groupedData(2, 20, 2)
	// Append junk points with items no one else has: zero neighbors.
	for j := 0; j < 3; j++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(1000+10*j), dataset.Item(1001+10*j)))
	}
	res, err := Cluster(ts, Config{Theta: 0.3, K: 2, MinNeighbors: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.Stats.Pruned < 3 {
		t.Fatalf("pruned %d, want at least the 3 junk points", res.Stats.Pruned)
	}
	for _, p := range []int{40, 41, 42} {
		if res.Assign[p] != -1 {
			t.Fatalf("junk point %d was clustered", p)
		}
	}
}

// TestPrunedListsSymmetric: the lists the link layer receives, pruned by
// degree and renumbered onto the kept points, stay ascending and
// symmetric, as linkage.Build and CountPairs require, at MinNeighbors 1
// and 3, with and without a seed partition, whose points are kept
// whatever their degree.
func TestPrunedListsSymmetric(t *testing.T) {
	var pruned [2]int // without and with a seed
	for trial := int64(0); trial < 40; trial++ {
		r := rand.New(rand.NewSource(trial))
		ts, _ := groupedData(2+r.Intn(3), 5+r.Intn(10), trial)
		ts = append(ts, randomTransactionsCore(r, 10+r.Intn(20), 6, 60)...)
		var seed [][]int
		if trial%2 == 1 {
			seed = randomSeed(r, len(ts), 4)
		}
		groupOf, err := seedGroups(seed, len(ts))
		if err != nil {
			t.Fatal(err)
		}
		nb := similarity.ComputeIndexed(ts, 0.2+0.4*r.Float64(), similarity.Options{IncludeSelf: r.Intn(2) == 0})
		for _, minNeighbors := range []int{1, 3} {
			kept, out := pruneByDegree(nb, minNeighbors, groupOf)
			pruned[trial%2] += len(out)
			f := filterNeighbors(nb, kept)
			for i, list := range f.Lists {
				for k, j := range list {
					if k > 0 && list[k-1] >= j {
						t.Fatalf("trial %d min=%d: list %d = %v is not ascending", trial, minNeighbors, i, list)
					}
					if _, ok := slices.BinarySearch(f.Lists[j], int32(i)); !ok {
						t.Fatalf("trial %d min=%d: %d lists %d, but %d does not list %d", trial, minNeighbors, i, j, j, i)
					}
				}
			}
		}
	}
	if pruned[0] == 0 || pruned[1] == 0 {
		t.Fatalf("pruned %d points without a seed and %d with one; want some on each side", pruned[0], pruned[1])
	}
}

func TestClusterSamplingAndLabeling(t *testing.T) {
	ts, truth := groupedData(3, 200, 4)
	// A generous labeling fraction keeps the per-point miss probability
	// negligible on this moderately fuzzy data.
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, SampleSize: 90, Seed: 5, LabelFraction: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if len(res.SampleIdx) != 90 {
		t.Fatalf("sample size = %d", len(res.SampleIdx))
	}
	if res.K() != 3 {
		t.Fatalf("found %d clusters, want 3", res.K())
	}
	// Labeling must put ≥ 99% of points into the correct group.
	misassigned := 0
	for ci, members := range res.Clusters {
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
		misassigned += len(members) - best
		_ = ci
	}
	if total := len(ts); misassigned > total/100 {
		t.Fatalf("%d of %d points mislabeled", misassigned, total)
	}
	if res.Stats.Unlabeled > 6 {
		t.Fatalf("unlabeled = %d", res.Stats.Unlabeled)
	}
}

func TestClusterSampledDegenerateAllPruned(t *testing.T) {
	// Mutually disjoint transactions: no neighbors anywhere; MinNeighbors
	// prunes the whole sample, and out-of-sample points become outliers.
	var ts []dataset.Transaction
	for i := 0; i < 30; i++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(3*i), dataset.Item(3*i+1)))
	}
	res, err := Cluster(ts, Config{Theta: 0.5, K: 2, SampleSize: 10, MinNeighbors: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.K() != 0 || len(res.Outliers) != 30 {
		t.Fatalf("k=%d outliers=%d, want 0/30", res.K(), len(res.Outliers))
	}
}

func TestClusterDeterminism(t *testing.T) {
	ts, _ := groupedData(3, 60, 7)
	cfg := Config{Theta: 0.35, K: 3, SampleSize: 100, Seed: 11, MinNeighbors: 1, WeedAt: 0.5}
	a, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.K() != b.K() {
		t.Fatal("nondeterministic cluster count")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic assignment at %d", i)
		}
	}
}

func TestClusterSeedChangesSample(t *testing.T) {
	ts, _ := groupedData(2, 100, 8)
	a, _ := Cluster(ts, Config{Theta: 0.3, K: 2, SampleSize: 50, Seed: 1})
	b, _ := Cluster(ts, Config{Theta: 0.3, K: 2, SampleSize: 50, Seed: 2})
	same := true
	for i := range a.SampleIdx {
		if a.SampleIdx[i] != b.SampleIdx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds drew identical samples")
	}
}

func TestClusterValidation(t *testing.T) {
	ts, _ := groupedData(1, 5, 9)
	bad := []Config{
		{Theta: -0.1, K: 2},
		{Theta: 1.5, K: 2},
		{Theta: 0.5, K: 0},
		{Theta: 0.5, K: 2, SampleSize: -1},
		{Theta: 0.5, K: 2, WeedAt: 2},
		{Theta: 0.5, K: 2, MinNeighbors: -3},
		// NaN fails every range test, so each needs its own rejection.
		{Theta: math.NaN(), K: 2},
		{Theta: 0.5, K: 2, WeedAt: math.NaN()},
		{Theta: 0.5, K: 2, LabelFraction: math.NaN()},
		{Theta: 0.5, K: 2, F: func(float64) float64 { return math.NaN() }},
		{Theta: 0.5, K: 2, F: ConstantF(math.Inf(1))},
		// Exponent 2001: the power table overflows at cluster size 2.
		{Theta: 0.5, K: 2, F: ConstantF(1000)},
		// Labeling and weeding knobs outside their ranges are rejected,
		// not mapped to the defaults.
		{Theta: 0.5, K: 2, LabelFraction: 1.5},
		{Theta: 0.5, K: 2, LabelFraction: -1},
		{Theta: 0.5, K: 2, MaxLabelPoints: -1},
		{Theta: 0.5, K: 2, WeedAt: 0.5, WeedMaxSize: -1},
		{Theta: 0.5, K: 2, Goodness: GoodnessLinksPerPair + 1},
		{Theta: 0.5, K: 2, Measure: similarity.Overlap + 1},
		// A negative worker count is an error, not GOMAXPROCS.
		{Theta: 0.5, K: 2, Workers: -7},
	}
	for i, cfg := range bad {
		if _, err := Cluster(ts, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

// TestEntryPointsRejectMalformedTransactions: every clustering entry
// point, and FreezeSets, refuses a transaction that holds a negative item
// or is out of order, naming it, instead of panicking or clustering it.
func TestEntryPointsRejectMalformedTransactions(t *testing.T) {
	cfg := Config{Theta: 0.3, K: 1}
	entries := []struct {
		name string
		run  func([]dataset.Transaction) error
	}{
		{"Cluster", func(ts []dataset.Transaction) error { _, err := Cluster(ts, cfg); return err }},
		{"ClusterSeeded", func(ts []dataset.Transaction) error { _, err := ClusterSeeded(ts, [][]int{{0, 1}}, cfg); return err }},
		{"ChunkedCluster", func(ts []dataset.Transaction) error {
			_, err := ChunkedCluster(ts, ChunkedConfig{Base: cfg, ChunkSize: 2})
			return err
		}},
		{"QRock", func(ts []dataset.Transaction) error { _, err := QRock(ts, QRockConfig{Theta: 0.3}); return err }},
		{"FreezeSets", func(ts []dataset.Transaction) error {
			_, err := FreezeSets(ts, [][]int{{0, 1}, {2, 3}}, nil, 0.3, 0.5, similarity.Jaccard)
			return err
		}},
	}
	for _, bad := range []dataset.Transaction{{-1, 2, 3}, {3, 1, 2}} {
		ts := []dataset.Transaction{{1, 2, 3}, {2, 3, 4}, bad, {1, 2, 4}}
		for _, e := range entries {
			if err := e.run(ts); err == nil || !strings.Contains(err.Error(), "transaction 2:") {
				t.Errorf("%s on %v: err = %v, want one naming transaction 2", e.name, bad, err)
			}
		}
	}
}

// TestClusterSparseItemIDsAllocation: one huge item id must not size the
// neighbor index by the largest id; a dense postings array here would
// take 384 MiB.
func TestClusterSparseItemIDsAllocation(t *testing.T) {
	ts := []dataset.Transaction{{1, 2, 1 << 24}, {1, 2, 3}, {1, 2, 4}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Cluster(ts, Config{Theta: 0.5, K: 1, Workers: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Cluster allocated %d bytes for 3 transactions", alloc)
	}
	if res.Stats.AvgNeighbors != 2 {
		t.Fatalf("m_a = %g, want 2: every pair shares items 1 and 2", res.Stats.AvgNeighbors)
	}
}

func TestClusterEmptyInput(t *testing.T) {
	res, err := Cluster(nil, Config{Theta: 0.5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 0 || len(res.Assign) != 0 {
		t.Fatal("empty input should give empty result")
	}
}

func TestClusterStoppedEarlyReported(t *testing.T) {
	// Two groups, ask for k=1: no cross links exist, so ROCK must stop at
	// two clusters and say so.
	ts, _ := groupedData(2, 20, 10)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.StoppedEarly {
		t.Fatal("early stop not reported")
	}
	if res.K() != 2 {
		t.Fatalf("k = %d, want 2", res.K())
	}
}

func TestResultSizes(t *testing.T) {
	res := &Result{Clusters: [][]int{{1, 2, 3}, {4}}}
	s := res.Sizes()
	if len(s) != 2 || s[0] != 3 || s[1] != 1 {
		t.Fatalf("Sizes = %v", s)
	}
}

// TestStatsLinkEntriesTwicePairs: the link table stores each linked pair
// once per direction, so the ledger's entry count is twice its pairs.
func TestStatsLinkEntriesTwicePairs(t *testing.T) {
	ts, _ := groupedData(3, 50, 61)
	res, err := Cluster(ts, Config{Theta: 0.3, K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Stats; st.LinkPairs == 0 || st.LinkEntries != 2*int64(st.LinkPairs) {
		t.Fatalf("LinkEntries %d, LinkPairs %d: want twice a positive count", st.LinkEntries, st.LinkPairs)
	}
}
