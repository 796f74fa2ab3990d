package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

func TestComputeSmall(t *testing.T) {
	ts := []dataset.Transaction{
		tr(1, 2, 3), // 0
		tr(1, 2, 4), // 1: sim with 0 = 0.5
		tr(3, 4, 5), // 2: sim with 0 = 0.2, with 1 = 0.2
		tr(9),       // 3: disjoint from all
	}
	nb := Compute(ts, 0.5, Options{})
	want := [][]int32{{1}, {0}, {}, {}}
	for i := range want {
		if len(nb.Lists[i]) != len(want[i]) {
			t.Fatalf("Lists[%d] = %v, want %v", i, nb.Lists[i], want[i])
		}
		for k := range want[i] {
			if nb.Lists[i][k] != want[i][k] {
				t.Fatalf("Lists[%d] = %v, want %v", i, nb.Lists[i], want[i])
			}
		}
	}
	if !slices.Contains(nb.Lists[0], 1) || slices.Contains(nb.Lists[0], 2) {
		t.Fatal("Lists[0] wrong")
	}
	avg, max, total := nb.Stats()
	if total != 2 || max != 1 || avg != 0.5 {
		t.Fatalf("Stats = %g,%d,%d", avg, max, total)
	}
}

func TestIncludeSelf(t *testing.T) {
	ts := []dataset.Transaction{tr(1), tr(2), tr()} // note: empty transaction
	for _, f := range []func([]dataset.Transaction, float64, Options) *Neighbors{Compute, ComputeIndexed} {
		nb := f(ts, 0.9, Options{IncludeSelf: true})
		if !slices.Contains(nb.Lists[0], 0) || !slices.Contains(nb.Lists[1], 1) {
			t.Fatal("self missing from neighbor list")
		}
		// sim(∅,∅) = 0 < θ: the empty transaction is not its own neighbor.
		if slices.Contains(nb.Lists[2], 2) {
			t.Fatal("empty transaction must not be its own neighbor")
		}
	}
}

func TestThetaBoundaries(t *testing.T) {
	ts := []dataset.Transaction{tr(1, 2), tr(1, 2), tr(3)}
	// θ=1 keeps only identical non-empty transactions.
	nb := Compute(ts, 1.0, Options{})
	if !slices.Contains(nb.Lists[0], 1) || slices.Contains(nb.Lists[0], 2) || nb.Degree(2) != 0 {
		t.Fatalf("theta=1 lists: %v", nb.Lists)
	}
	// θ=0 makes everything a neighbor of everything (brute force path).
	nb0 := Compute(ts, 0, Options{})
	for i := 0; i < 3; i++ {
		if nb0.Degree(i) != 2 {
			t.Fatalf("theta=0 degree(%d) = %d, want 2", i, nb0.Degree(i))
		}
	}
	nbi := ComputeIndexed(ts, 0, Options{})
	if !neighborsEqual(nb0, nbi) {
		t.Fatal("indexed at theta=0 differs from brute force")
	}

	// At θ ≤ 0 every pair passes, an empty transaction's included: each
	// row holds every other point, and itself with IncludeSelf, and the
	// index answers without reading a posting.
	withEmpty := append(ts[:len(ts):len(ts)], tr())
	for _, theta := range []float64{0, -0.5} {
		for _, self := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				opts := Options{IncludeSelf: self, Workers: workers}
				brute := Compute(withEmpty, theta, opts)
				indexed, w := computeIndexed(withEmpty, theta, opts)
				if !neighborsEqual(brute, indexed) {
					t.Fatalf("theta=%v opts=%+v: indexed %v, brute force %v", theta, opts, indexed.Lists, brute.Lists)
				}
				if w != (queryWork{}) {
					t.Fatalf("theta=%v opts=%+v: work %+v, want none", theta, opts, w)
				}
				want := len(withEmpty) - 1
				if self {
					want++
				}
				for i := range withEmpty {
					if indexed.Degree(i) != want {
						t.Fatalf("theta=%v opts=%+v: degree(%d) = %d, want %d", theta, opts, i, indexed.Degree(i), want)
					}
				}
			}
		}
	}
}

func neighborsEqual(a, b *Neighbors) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Lists {
		if len(a.Lists[i]) != len(b.Lists[i]) {
			return false
		}
		for k := range a.Lists[i] {
			if a.Lists[i][k] != b.Lists[i][k] {
				return false
			}
		}
	}
	return true
}

// skewedTrans draws up to maxLen items whose ids concentrate at the low
// end, so a few common items hold long postings, as hubs do in baskets.
func skewedTrans(r *rand.Rand, universe, maxLen int) dataset.Transaction {
	items := make([]dataset.Item, r.Intn(maxLen+1))
	for i := range items {
		items[i] = dataset.Item(float64(universe) * r.Float64() * r.Float64())
	}
	return dataset.NewTransaction(items...)
}

// The inverted-index path must agree exactly with brute force across
// random datasets, thresholds, worker counts, and self-inclusion, and on
// two inputs at scale: hub baskets, where most rows probe, and dense
// planted labels, where every row runs the full count. The random
// trials after the first 25 draw skewed items, whose common items make
// more rows probe.
func TestIndexedMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var work queryWork
	for trial := 0; trial < 125; trial++ {
		draw := randTrans
		if trial >= 25 {
			draw = skewedTrans
		}
		n := 5 + r.Intn(60)
		ts := make([]dataset.Transaction, n)
		for i := range ts {
			ts[i] = draw(r, 25, 10)
		}
		theta := []float64{0.1, 0.25, 0.5, 0.75, 1.0}[r.Intn(5)]
		opts := Options{IncludeSelf: r.Intn(2) == 0, Workers: 1 + r.Intn(4)}
		brute := Compute(ts, theta, opts)
		indexed, w := computeIndexed(ts, theta, opts)
		if !neighborsEqual(brute, indexed) {
			t.Fatalf("trial %d (n=%d θ=%g opts=%+v): indexed differs from brute", trial, n, theta, opts)
		}
		work.add(w)
	}
	if work.probes == 0 || work.fulls == 0 {
		t.Fatalf("random trials: work %+v, want both postings paths", work)
	}

	for _, in := range []struct {
		name   string
		ts     []dataset.Transaction
		theta  float64
		probes bool
	}{
		{"hub baskets n=2000", hubBaskets(), 0.45, true},
		{"planted labels n=300", plantedLabels(300), 0.5, false},
	} {
		for _, self := range []bool{false, true} {
			brute := Compute(in.ts, in.theta, Options{IncludeSelf: self})
			for _, workers := range []int{1, 2, 4, 8} {
				opts := Options{IncludeSelf: self, Workers: workers}
				indexed, w := computeIndexed(in.ts, in.theta, opts)
				if !neighborsEqual(brute, indexed) {
					t.Fatalf("%s opts=%+v: indexed differs from brute", in.name, opts)
				}
				if in.probes && (w.probes == 0 || w.fulls == 0) || !in.probes && (w.probes != 0 || w.fulls != len(in.ts)) {
					t.Fatalf("%s opts=%+v: work %+v, want probes=%v", in.name, opts, w, in.probes)
				}
			}
		}
	}
}

func TestWorkerCountIrrelevant(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ts := make([]dataset.Transaction, 80)
	for i := range ts {
		ts[i] = randTrans(r, 30, 8)
	}
	ref := Compute(ts, 0.4, Options{Workers: 1})
	for _, w := range []int{2, 3, 8} {
		if !neighborsEqual(ref, Compute(ts, 0.4, Options{Workers: w})) {
			t.Fatalf("brute force with %d workers differs", w)
		}
		if !neighborsEqual(ref, ComputeIndexed(ts, 0.4, Options{Workers: w})) {
			t.Fatalf("indexed with %d workers differs", w)
		}
	}
}

// checkSymmetric fails unless every list of nb is strictly ascending and
// j ∈ N(i) exactly when i ∈ N(j): the contract the link layer builds on.
func checkSymmetric(t *testing.T, label string, nb *Neighbors) {
	t.Helper()
	for i, list := range nb.Lists {
		for k, j := range list {
			if k > 0 && list[k-1] >= j {
				t.Fatalf("%s: list %d = %v is not ascending", label, i, list)
			}
			if _, ok := slices.BinarySearch(nb.Lists[j], int32(i)); !ok {
				t.Fatalf("%s: %d lists %d, but %d does not list %d", label, i, j, j, i)
			}
		}
	}
}

// TestNeighborListsSymmetric: Compute and ComputeIndexed return ascending,
// symmetric lists for every measure, with and without IncludeSelf, at θ
// from 0 to 1 and at several worker counts, over random transactions
// with empty and one-item ones among them.
func TestNeighborListsSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ts := []dataset.Transaction{tr(), tr(4)}
	for range 100 {
		ts = append(ts, randTrans(r, 20, 9))
	}
	ts = append(ts, tr(), tr(4), tr(9))
	for _, m := range []Measure{Jaccard, Dice, Cosine, Overlap} {
		for _, theta := range []float64{0, 0.3, 0.35, 0.5, 1} {
			for _, self := range []bool{false, true} {
				for _, workers := range []int{1, 2, 4} {
					opts := Options{Measure: m, IncludeSelf: self, Workers: workers}
					label := fmt.Sprintf("%s θ=%g self=%v workers=%d", m, theta, self, workers)
					checkSymmetric(t, "Compute "+label, Compute(ts, theta, opts))
					checkSymmetric(t, "ComputeIndexed "+label, ComputeIndexed(ts, theta, opts))
				}
			}
		}
	}
}

func TestNeighborsStatsEmpty(t *testing.T) {
	var nb Neighbors
	avg, max, total := nb.Stats()
	if avg != 0 || max != 0 || total != 0 {
		t.Fatal("Stats on empty neighbors should be zeros")
	}
}
