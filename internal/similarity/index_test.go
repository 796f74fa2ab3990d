package similarity

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/synth"
)

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

// TestPrefixBoundsSound: for each counted form, all lengths up to 24,
// every overlap 1 ≤ o ≤ min(la, lb), and every θ on the boundary grid, a
// pair the counted form accepts, cm(o, la, lb) ≥ θ, has o ≥ α_q(la) and
// o ≥ α_x(lb), and passes the length filter: neither prefix nor the
// filter can drop it. The counted form accepts exactly the overlaps at
// or above the threshold the index compares counts with.
func TestPrefixBoundsSound(t *testing.T) {
	const maxLen = 24
	forms := []struct {
		name string
		cm   CountedMeasure
	}{{"jaccard", countedJaccard}, {"dice", countedDice}, {"cosine", countedCosine}, {"overlap", countedOverlap}}
	var aq, ax [maxLen + 1]int
	sc := &Scratch{need: make([]int32, maxLen+1), needLq: make([]int32, maxLen+1)}
	for _, f := range forms {
		for _, theta := range indexThetas(maxLen) {
			ix := &Index{cm: f.cm, theta: theta}
			clear(sc.needLq)
			for l := 1; l <= maxLen; l++ {
				aq[l], ax[l] = queryAlpha(f.cm, theta, l), indexAlpha(f.cm, theta, l)
			}
			for la := 1; la <= maxLen; la++ {
				for lb := 1; lb <= maxLen; lb++ {
					need := int(ix.threshold(sc, la, lb))
					for o := 1; o <= min(la, lb); o++ {
						pass := f.cm(o, la, lb) >= theta
						if pass != (o >= need) {
							t.Fatalf("%s θ=%v: cm(%d, %d, %d) passes=%v against threshold %d", f.name, theta, o, la, lb, pass, need)
						}
						if !pass {
							continue
						}
						if o < aq[la] || o < ax[lb] {
							t.Fatalf("%s θ=%v: cm(%d, %d, %d) passes below α_q(%d)=%d or α_x(%d)=%d",
								f.name, theta, o, la, lb, la, aq[la], lb, ax[lb])
						}
						if f.cm(min(la, lb), la, lb) < theta {
							t.Fatalf("%s θ=%v: cm(%d, %d, %d) passes but the length filter drops lengths (%d, %d)",
								f.name, theta, o, la, lb, la, lb)
						}
					}
				}
			}
		}
	}
}

// TestIndexQueryMatchesPairwise: for every measure, every θ on the grid,
// and item ids that take the dense array, the sparse map, or include
// negative ids, Query returns exactly the ids a pairwise scan accepts, for
// the indexed transactions themselves and for queries holding unknown or
// negative items. Both postings paths run.
func TestIndexQueryMatchesPairwise(t *testing.T) {
	const universe, maxLen = 10, 4
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
	var work queryWork
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
		for _, m := range []Measure{Jaccard, Dice, Cosine, Overlap} {
			for _, theta := range thetas {
				label := fmt.Sprintf("%s/%s/θ=%v", rg.name, m, theta)
				ix := NewIndex(ts, theta, m)
				if want := rg.sparse && theta > 0; ix.SparsePostings() != want {
					t.Fatalf("%s: SparsePostings() = %v, want %v", label, ix.SparsePostings(), want)
				}
				sc := ix.NewScratch()
				var got []int32
				for qi, q := range queries {
					got = ix.Query(q, sc, got[:0])
					slices.Sort(got)
					var want []int32
					for j := range ts {
						if m.Sim(q, ts[j]) >= theta {
							want = append(want, int32(j))
						}
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: query %d %v: got %v, want %v", label, qi, q, got, want)
					}
				}
				work.add(sc.work)
			}
		}
	}
	if work.probes == 0 || work.fulls == 0 {
		t.Fatalf("work %+v: both postings paths must run", work)
	}
}

// hubBaskets is the sampled-baskets shape at test size: 2000 baskets of
// up to 12 items from 250 templates of 15, each draw replaced with
// probability 0.15 by one of 15 hub items. The hubs' postings are long
// and their items rank last, so most queries probe.
func hubBaskets() []dataset.Transaction {
	return synth.Basket(synth.BasketConfig{Transactions: 2000, Clusters: 250, TemplateItems: 15, TransactionSize: 12, NoiseItems: 15, NoiseRate: 0.15, Seed: 1}).Trans
}

// plantedLabels returns n planted-label records over 4 classes, the
// dense shape: every item is common, so no query probes.
func plantedLabels(n int) []dataset.Transaction {
	return synth.Labeled(synth.LabeledConfig{Records: n, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: 1}).Trans
}

// streamModel returns labeled points and queries shaped like the
// stream-drift benchmark's model: 4 templates of 12 items, 50 labeled
// 8-item baskets a template, queried by 256 baskets of the same
// templates and 256 of 4 templates the model has never seen.
func streamModel() (pts, queries []dataset.Transaction) {
	r := rand.New(rand.NewSource(1))
	basket := func(template int) dataset.Transaction {
		perm := r.Perm(12)[:8]
		items := make([]dataset.Item, len(perm))
		for k, p := range perm {
			items[k] = dataset.Item(12*template + p)
		}
		return dataset.NewTransaction(items...)
	}
	for k := 0; k < 200; k++ {
		pts = append(pts, basket(k%4))
	}
	for k := 0; k < 512; k++ {
		queries = append(queries, basket(k%4+4*(k/256)))
	}
	return pts, queries
}

// TestIndexWorkCounts pins the index's work at Workers 1/2/4/8: the
// queries on each path, posting reads and counted candidates of
// ComputeIndexed on dense planted labels and on hub baskets at θ=0.45
// and θ=0.3, and of labeler queries against a stream-drift-shaped
// model. Every count is a function of the inputs alone, so an
// algorithmic change to either path, or to the rule that picks between
// them, moves a pin without a wall-clock threshold: a probe budget of 1,
// 3, 5 or 8 full counts instead of 4 moves a hub-baskets pin.
func TestIndexWorkCounts(t *testing.T) {
	want := map[string]queryWork{
		"planted labels n=300":     {fulls: 300, reads: 107194, candidates: 21757},
		"hub baskets n=2000":       {probes: 1729, fulls: 271, reads: 16140, candidates: 6650},
		"hub baskets n=2000 θ=0.3": {probes: 1491, fulls: 509, reads: 66987, candidates: 49460},
		"stream model queries":     {fulls: 512, reads: 68131, candidates: 12800},
	}
	for _, w := range []int{1, 2, 4, 8} {
		got := map[string]queryWork{}
		_, got["planted labels n=300"] = computeIndexed(plantedLabels(300), 0.5, Options{Workers: w})
		_, got["hub baskets n=2000"] = computeIndexed(hubBaskets(), 0.45, Options{Workers: w})
		_, got["hub baskets n=2000 θ=0.3"] = computeIndexed(hubBaskets(), 0.3, Options{Workers: w})

		pts, queries := streamModel()
		ix := NewIndex(pts, 0.35, Jaccard)
		var total queryWork
		var mu sync.Mutex
		chunkwork.Run(len(queries), w, 16, func(next func() (int, int, bool)) {
			sc := ix.NewScratch()
			var hits []int32
			for lo, hi, ok := next(); ok; lo, hi, ok = next() {
				for _, q := range queries[lo:hi] {
					hits = ix.Query(q, sc, hits[:0])
				}
			}
			mu.Lock()
			total.add(sc.work)
			mu.Unlock()
		})
		got["stream model queries"] = total

		for name, pin := range want {
			if got[name] != pin {
				t.Errorf("%s workers=%d: work %+v, want %+v", name, w, got[name], pin)
			}
		}
	}
}
