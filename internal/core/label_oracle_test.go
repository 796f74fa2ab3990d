package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// customLabelMeasure is deliberately NOT a function of (|a∩b|, |a|, |b|)
// alone — it is positive on disjoint transactions — so the indexed path
// would be wrong for it. similarity.Counted must return nil and the
// labeler must take the pairwise fallback, which this file proves against
// the reference on the same footing as the built-ins.
func customLabelMeasure(a, b dataset.Transaction) float64 {
	d := len(a) - len(b)
	if d < 0 {
		d = -d
	}
	return 1 / (1 + float64(d))
}

// labelWorkerCounts mirrors oracleWorkerCounts for the labeling phase,
// per the acceptance criteria.
var labelWorkerCounts = []int{1, 2, 4, 8}

// labelOracleMeasures are the measures every label-oracle configuration
// cycles through: all four counted built-ins plus the pairwise-only
// custom one.
var labelOracleMeasures = []struct {
	name string
	fn   similarity.Measure
}{
	{"jaccard", similarity.Jaccard},
	{"dice", similarity.Dice},
	{"cosine", similarity.Cosine},
	{"overlap", similarity.Overlap},
	{"custom", customLabelMeasure},
}

// TestLabelOracleRandom proves the indexed/parallel labeler assignment-
// identical to the serial pairwise reference on randomized labeled-set
// structures: every measure, worker counts 1/2/4/8, and both sides of the
// serial crossover (forced-parallel and forced-serial).
func TestLabelOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(250)
		ts := randomTransactionsCore(r, n, 1+r.Intn(8), 4+r.Intn(30))

		// A random partition prefix becomes the "clusters"; the rest are
		// candidates. Clusters need not be exhaustive or contiguous —
		// labeling only sees the L_i subsets.
		split := 1 + r.Intn(n-1)
		k := 1 + r.Intn(6)
		clusters := make([][]int, k)
		for p := 0; p < split; p++ {
			ci := r.Intn(k)
			clusters[ci] = append(clusters[ci], p)
		}
		var nonEmpty [][]int
		for _, c := range clusters {
			if len(c) > 0 {
				nonEmpty = append(nonEmpty, c)
			}
		}
		// Draw the L_i through the real labelSets, so the tested subset
		// shapes are exactly the pipeline's (LabelFraction and
		// MaxLabelPoints both random).
		cfg := Config{
			Theta:          0.05 + 0.9*r.Float64(),
			K:              k,
			LabelFraction:  0.05 + 0.9*r.Float64(),
			MaxLabelPoints: 1 + r.Intn(25),
		}.withDefaults()
		sets := labelSets(nonEmpty, cfg, r)

		candidates := make([]int, 0, n-split)
		for p := split; p < n; p++ {
			candidates = append(candidates, p)
		}
		theta := cfg.Theta
		f := MarketBasketF(theta)
		m := labelOracleMeasures[int(seed)%len(labelOracleMeasures)]

		ref := labelCandidatesReference(ts, candidates, sets, theta, f, m.fn)
		for _, workers := range labelWorkerCounts {
			for _, serialBelow := range []int{-1, n + 1} {
				got := newLabeler(ts, sets, theta, f, m.fn).run(candidates, workers, serialBelow)
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("seed=%d n=%d sets=%d measure=%s workers=%d serialBelow=%d: assignments diverge\ngot: %v\nref: %v",
						seed, n, len(sets), m.name, workers, serialBelow, got, ref)
				}
			}
		}
	}
}

// TestLabelOracleCluster proves the whole pipeline byte-identical when
// labeling runs indexed/parallel vs the serial pairwise reference, across
// randomized configs (θ, sample size, LabelFraction, MaxLabelPoints,
// LabelOutliers, pruning, weeding, every measure) and worker counts
// 1/2/4/8 — Assign, Clusters, Outliers, Stats, and serialized bytes.
func TestLabelOracleCluster(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 24; trial++ {
		n := 120 + r.Intn(200)
		ts := randomTransactionsCore(r, n, 2+r.Intn(7), 6+r.Intn(24))
		m := labelOracleMeasures[trial%len(labelOracleMeasures)]
		cfg := Config{
			Theta:          0.1 + 0.7*r.Float64(),
			K:              1 + r.Intn(5),
			Measure:        m.fn,
			Seed:           r.Int63(),
			SampleSize:     20 + r.Intn(n-20),
			LabelFraction:  0.05 + 0.9*r.Float64(),
			MaxLabelPoints: 1 + r.Intn(30),
			LabelOutliers:  trial%2 == 0,
		}
		if trial%3 == 0 {
			cfg.MinNeighbors = 1 + r.Intn(2)
		}
		if trial%4 == 0 {
			cfg.WeedAt = 0.1 + 0.4*r.Float64()
		}

		refCfg := cfg
		refCfg.labelReference = true
		ref, err := Cluster(ts, refCfg)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		var refBuf bytes.Buffer
		if err := WriteResult(&refBuf, ref); err != nil {
			t.Fatalf("trial %d: serialize reference: %v", trial, err)
		}

		for _, workers := range labelWorkerCounts {
			for _, serialBelow := range []int{0, -1} {
				label := fmt.Sprintf("trial=%d measure=%s workers=%d serialBelow=%d", trial, m.name, workers, serialBelow)
				runCfg := cfg
				runCfg.Workers = workers
				runCfg.labelSerialBelow = serialBelow
				got, err := Cluster(ts, runCfg)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(got.Assign, ref.Assign) {
					t.Fatalf("%s: Assign diverges", label)
				}
				if !reflect.DeepEqual(got.Clusters, ref.Clusters) {
					t.Fatalf("%s: Clusters diverge", label)
				}
				if !reflect.DeepEqual(got.Outliers, ref.Outliers) {
					t.Fatalf("%s: Outliers diverge", label)
				}
				if got.Stats != ref.Stats {
					t.Fatalf("%s: Stats diverge\ngot: %+v\nref: %+v", label, got.Stats, ref.Stats)
				}
				var buf bytes.Buffer
				if err := WriteResult(&buf, got); err != nil {
					t.Fatalf("%s: serialize: %v", label, err)
				}
				if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
					t.Fatalf("%s: serialized bytes diverge from the reference labeler's", label)
				}
			}
		}
	}
}

// TestLabelIndexedFallbackSelection pins the dispatch rule of the
// labeler's index: built-in measures at θ > 0 scan item postings; custom
// measures and θ ≤ 0 (where disjoint pairs are neighbors, invisible to
// postings) must query pairwise.
func TestLabelIndexedFallbackSelection(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ts := randomTransactionsCore(r, 40, 5, 12)
	sets := [][]int{{0, 1, 2}, {3, 4}}
	cases := []struct {
		name    string
		theta   float64
		m       similarity.Measure
		indexed bool
	}{
		{"jaccard", 0.4, similarity.Jaccard, true},
		{"dice", 0.4, similarity.Dice, true},
		{"cosine", 0.4, similarity.Cosine, true},
		{"overlap", 0.4, similarity.Overlap, true},
		{"nil=jaccard", 0.4, nil, true},
		{"custom", 0.4, customLabelMeasure, false},
		{"attribute-closure", 0.4, similarity.Attribute(6), false},
		{"theta-zero", 0, similarity.Jaccard, false},
	}
	for _, tc := range cases {
		lb := newLabeler(ts, sets, tc.theta, 0.5, tc.m)
		if indexed := !lb.ix.Pairwise(); indexed != tc.indexed {
			t.Errorf("%s: indexed = %v, want %v", tc.name, indexed, tc.indexed)
		}
	}
}

// TestLabelThetaZeroOracle: at θ = 0 every labeled point is a neighbor of
// every candidate (sim ≥ 0 always), the regime the index cannot see. The
// fallback must reproduce the reference exactly, including at θ = 0 ties
// resolved toward the larger-score (smaller |L_i|+1 under positive f) set.
func TestLabelThetaZeroOracle(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	ts := randomTransactionsCore(r, 80, 6, 15)
	sets := [][]int{{0, 1, 2, 3}, {4, 5}, {6, 7, 8}}
	candidates := []int{10, 11, 12, 40, 79}
	ref := labelCandidatesReference(ts, candidates, sets, 0, 0.5, similarity.Jaccard)
	for _, workers := range labelWorkerCounts {
		got := newLabeler(ts, sets, 0, 0.5, similarity.Jaccard).run(candidates, workers, -1)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: got %v, ref %v", workers, got, ref)
		}
	}
	for i := range candidates {
		if ref[i] != 0 {
			t.Fatalf("candidate %d: assigned to %d; at θ=0 every set scores |L_i|/(|L_i|+1)^f, increasing in |L_i| for f<1 — want the largest set (index 0)", i, ref[i])
		}
	}
}
