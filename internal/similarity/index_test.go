package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

// simpleMatching is the fraction of a u-item universe on which a and b
// agree, present in both or absent from both. It is positive on disjoint
// transactions, so no postings scan can be exact for it.
func simpleMatching(u int) Measure {
	return func(a, b dataset.Transaction) float64 {
		inter := a.IntersectSize(b)
		return float64(u-len(a)-len(b)+2*inter) / float64(u)
	}
}

// indexThetas is the θ grid of the index property test: 0, 1, and every
// exact boundary value the four counted forms produce for sizes up to
// maxLen, such as Jaccard's o/(la+lb−o), where a pair scores θ exactly.
func indexThetas(maxLen int) []float64 {
	thetas := []float64{0, 1}
	for la := 1; la <= maxLen; la++ {
		for lb := 1; lb <= maxLen; lb++ {
			for o := 1; o <= min(la, lb); o++ {
				for _, cm := range []CountedMeasure{countedJaccard, countedDice, countedCosine, countedOverlap} {
					thetas = append(thetas, cm(o, la, lb))
				}
			}
		}
	}
	slices.Sort(thetas)
	return slices.Compact(thetas)
}

// TestIndexQueryMatchesPairwise: for every measure, every θ on the grid,
// and item ids that take the dense array, the sparse map, or include
// negative ids, Query returns exactly the ids a pairwise scan accepts, for
// the indexed transactions themselves and for queries holding unknown or
// negative items.
func TestIndexQueryMatchesPairwise(t *testing.T) {
	const universe, maxLen = 10, 4
	measures := []struct {
		name     string
		m        Measure
		pairwise bool
	}{
		{"jaccard", Jaccard, false},
		{"dice", Dice, false},
		{"cosine", Cosine, false},
		{"overlap", Overlap, false},
		{"nil", nil, false},
		{"attribute", Attribute(6), true},
		{"disjoint-positive", simpleMatching(universe), true},
	}
	regimes := []struct {
		name   string
		id     func(k int) dataset.Item // universe position → item id
		sparse bool
	}{
		{"dense", func(k int) dataset.Item { return dataset.Item(k) }, false},
		{"sparse", func(k int) dataset.Item { return dataset.Item(k * 1_000_003) }, true},
		{"negative", func(k int) dataset.Item { return dataset.Item(k - universe/2) }, true},
	}
	thetas := indexThetas(maxLen)
	r := rand.New(rand.NewSource(41))
	for _, rg := range regimes {
		ts := make([]dataset.Transaction, 30)
		for i := range ts {
			items := make([]dataset.Item, r.Intn(maxLen+1))
			for k := range items {
				items[k] = rg.id(r.Intn(universe))
			}
			ts[i] = dataset.NewTransaction(items...)
		}
		queries := append([]dataset.Transaction{
			dataset.NewTransaction(rg.id(0), rg.id(1), 1<<30),           // one unknown id
			dataset.NewTransaction(-1<<30, rg.id(2), rg.id(universe-1)), // one negative id
			dataset.NewTransaction(-7, -1, 1<<30),                       // nothing indexed
			nil,
		}, ts...)
		for _, ms := range measures {
			sim := ms.m
			if sim == nil {
				sim = Jaccard
			}
			for _, theta := range thetas {
				label := fmt.Sprintf("%s/%s/θ=%v", rg.name, ms.name, theta)
				ix := NewIndex(ts, theta, ms.m)
				if want := ms.pairwise || theta <= 0; ix.Pairwise() != want {
					t.Fatalf("%s: Pairwise() = %v, want %v", label, ix.Pairwise(), want)
				}
				if want := rg.sparse && !ix.Pairwise(); ix.SparsePostings() != want {
					t.Fatalf("%s: SparsePostings() = %v, want %v", label, ix.SparsePostings(), want)
				}
				sc := ix.NewScratch()
				var got []int32
				for qi, q := range queries {
					got = ix.Query(q, sc, got[:0])
					slices.Sort(got)
					var want []int32
					for j := range ts {
						if sim(q, ts[j]) >= theta {
							want = append(want, int32(j))
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: query %d %v: got %v, want %v", label, qi, q, got, want)
					}
				}
			}
		}
	}
}
