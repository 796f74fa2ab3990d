package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// tsWithItems builds a canonical transaction from raw item ids.
func tsWithItems(items ...int) dataset.Transaction {
	ds := make([]dataset.Item, len(items))
	for i, it := range items {
		ds[i] = dataset.Item(it)
	}
	return dataset.NewTransaction(ds...)
}

// Labeling properties, checked brute-force against the production
// labeler (indexed where eligible, sharded across a few worker counts):
//
//   - the winning cluster maximizes N_i / (|L_i|+1)^f, ties toward the
//     smaller cluster index;
//   - a candidate with no θ-neighbor in any L_i is always assigned -1;
//   - a candidate with at least one θ-neighbor is never assigned -1.
func TestLabelArgmaxProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		n := 40 + r.Intn(120)
		ts := randomTransactionsCore(r, n, 1+r.Intn(7), 5+r.Intn(20))
		k := 1 + r.Intn(5)
		sets := make([][]int, k)
		next := 0
		for i := range sets {
			sz := 1 + r.Intn(8)
			for j := 0; j < sz && next < n/2; j++ {
				sets[i] = append(sets[i], next)
				next++
			}
			if len(sets[i]) == 0 {
				sets[i] = append(sets[i], next%n)
			}
		}
		candidates := make([]int, 0, n-n/2)
		for p := n / 2; p < n; p++ {
			candidates = append(candidates, p)
		}
		theta := 0.05 + 0.9*r.Float64()
		f := MarketBasketF(theta)
		m := labelOracleMeasures[int(seed)%len(labelOracleMeasures)]

		got := newLabeler(ts, sets, theta, f, m.fn).run(candidates, 1+int(seed)%4)
		for i, p := range candidates {
			// Brute-force scores straight from the definition.
			best, bestScore := -1, 0.0
			for si, li := range sets {
				nn := 0
				for _, q := range li {
					if m.fn.Sim(ts[p], ts[q]) >= theta {
						nn++
					}
				}
				if nn == 0 {
					continue
				}
				score := float64(nn) / math.Pow(float64(len(li)+1), f)
				if best == -1 || score > bestScore {
					best, bestScore = si, score
				}
			}
			if got[i] != best {
				t.Fatalf("seed=%d candidate %d (measure=%s θ=%.3f): labeled %d, brute-force argmax %d",
					seed, p, m.name, theta, got[i], best)
			}
			if best >= 0 {
				// Maximality + tie-break: no set may strictly beat the
				// winner, and no smaller-indexed set may tie it.
				for si, li := range sets {
					nn := 0
					for _, q := range li {
						if m.fn.Sim(ts[p], ts[q]) >= theta {
							nn++
						}
					}
					if nn == 0 {
						continue
					}
					score := float64(nn) / math.Pow(float64(len(li)+1), f)
					if score > bestScore || (score == bestScore && si < best) {
						t.Fatalf("seed=%d candidate %d: set %d (score %g) beats winner %d (score %g)",
							seed, p, si, score, best, bestScore)
					}
				}
			}
		}
	}
}

// A sampled Cluster run must route every unlabeled candidate to Outliers
// and never cluster a candidate with no θ-neighbor in any L_i: outliers
// of the labeling phase are exactly the no-neighbor candidates of the
// final subsets. Verified through the Stats ledger (LabelCandidates ==
// Labeled + Unlabeled) plus membership reconciliation.
func TestLabelNoNeighborIsOutlier(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	ts := randomTransactionsCore(r, 300, 5, 18)
	// A few guaranteed-isolated candidates: items far outside every other
	// transaction's vocabulary, so no L_i can contain a θ-neighbor.
	for _, p := range []int{290, 295, 299} {
		ts[p] = tsWithItems(1000+p, 1001+p, 1002+p)
	}
	res, err := Cluster(ts, Config{Theta: 0.4, K: 3, SampleSize: 150, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.LabelCandidates != res.Stats.Labeled+res.Stats.Unlabeled {
		t.Fatalf("ledger: candidates %d != labeled %d + unlabeled %d",
			res.Stats.LabelCandidates, res.Stats.Labeled, res.Stats.Unlabeled)
	}
	inSample := make(map[int]bool)
	for _, p := range res.SampleIdx {
		inSample[p] = true
	}
	outlier := make(map[int]bool)
	for _, p := range res.Outliers {
		outlier[p] = true
	}
	for _, p := range []int{290, 295, 299} {
		if inSample[p] {
			continue // clustered as a sample member is out of labeling's scope
		}
		if !outlier[p] {
			t.Fatalf("isolated candidate %d (no possible θ-neighbor) was labeled into cluster %d", p, res.Assign[p])
		}
	}
}

// Labeling must be a no-op when no sample is drawn (SampleSize ≥ n or 0)
// and LabelOutliers is off: zero candidates, zero labeled/unlabeled, and
// the labeling knobs (LabelFraction, MaxLabelPoints) must not perturb a
// single output byte.
func TestLabelNoopWithoutSampling(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	ts := randomTransactionsCore(r, 150, 6, 20)
	for _, sampleSize := range []int{0, 150, 400} {
		base := Config{Theta: 0.45, K: 4, SampleSize: sampleSize, Seed: 31}
		ref, err := Cluster(ts, base)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.LabelCandidates != 0 || ref.Stats.Labeled != 0 || ref.Stats.Unlabeled != 0 {
			t.Fatalf("SampleSize=%d: labeling ran without a sample: %+v", sampleSize, ref.Stats)
		}
		var refBuf bytes.Buffer
		if err := WriteResult(&refBuf, ref); err != nil {
			t.Fatal(err)
		}
		perturbed := base
		perturbed.LabelFraction = 0.9
		perturbed.MaxLabelPoints = 3
		res, err := Cluster(ts, perturbed)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteResult(&buf, res); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			t.Fatalf("SampleSize=%d: labeling knobs changed output bytes despite no candidates", sampleSize)
		}
	}
}

// Labeling zero candidates must be a cheap no-op at every worker count —
// regression test: sharding zero candidates used to cap the workers to
// zero and panic the coordinator's WaitGroup.
func TestLabelEmptyCandidates(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	ts := randomTransactionsCore(r, 20, 5, 12)
	sets := [][]int{{0, 1}, {2}}
	for _, workers := range []int{0, 1, 4} {
		got := newLabeler(ts, sets, 0.5, 0.5, similarity.Jaccard).run(nil, workers)
		if len(got) != 0 {
			t.Fatalf("workers=%d: %v assignments for zero candidates", workers, got)
		}
	}
}

// A candidate transaction carrying items no labeled point has — above
// the postings range or negative (invalid per the data model, but
// tolerated by the pairwise reference) — must label identically on the
// indexed path, not panic. Regression test for the negative-item guard.
func TestLabelIndexedOutOfRangeItems(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	ts := randomTransactionsCore(r, 30, 5, 10)
	ts = append(ts, dataset.Transaction{-3, 2, 5, 9000}) // non-canonical but reference-tolerated
	sets := [][]int{{0, 1, 2}, {3, 4, 5}}
	candidates := []int{20, 25, 30}
	theta, f := 0.3, 0.5
	ref := labelCandidatesReference(ts, candidates, sets, theta, f, similarity.Jaccard)
	for _, workers := range []int{1, 4} {
		got := newLabeler(ts, sets, theta, f, similarity.Jaccard).run(candidates, workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: got %v, ref %v", workers, got, ref)
		}
	}
}
