package similarity

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
)

// newIndexReference is NewIndex as it was built with comparison sorts:
// the held items sorted by (frequency, id) through a closure, and each
// transaction's ranks sorted in place. TestNewIndexMatchesReference
// holds the counting-sort build to it.
func newIndexReference(ts []dataset.Transaction, theta float64, m Measure) *Index {
	ix := &Index{ts: ts, theta: theta, cm: m.Counted()}
	if theta <= 0 {
		return ix
	}
	nitems, occurrences, negative := 0, 0, false
	for _, t := range ts {
		occurrences += len(t)
		ix.maxLen = max(ix.maxLen, len(t))
		for _, it := range t {
			if it < 0 {
				negative = true
			} else if int(it) >= nitems {
				nitems = int(it) + 1
			}
		}
	}

	// Rank the held items by (frequency, id). Vocabulary-interned ids
	// always take the dense array: their id space is within a small
	// factor of the item occurrences it indexes.
	var items []dataset.Item
	var freq func(dataset.Item) int32
	if !negative && nitems <= 4*occurrences+1024 {
		ix.rank = make([]int32, nitems) // frequencies until ranked
		for _, t := range ts {
			for _, it := range t {
				ix.rank[it]++
			}
		}
		for it, f := range ix.rank {
			if f > 0 {
				items = append(items, dataset.Item(it))
			}
		}
		freq = func(it dataset.Item) int32 { return ix.rank[it] }
	} else {
		ix.rankMap = make(map[dataset.Item]int32, occurrences)
		for _, t := range ts {
			for _, it := range t {
				ix.rankMap[it]++
			}
		}
		for it := range ix.rankMap {
			items = append(items, it)
		}
		freq = func(it dataset.Item) int32 { return ix.rankMap[it] }
	}
	slices.SortFunc(items, func(a, b dataset.Item) int {
		return cmp.Or(cmp.Compare(freq(a), freq(b)), cmp.Compare(a, b))
	})
	// seg[2r+2] counts rank r's postings and seg[2r+1] its prefix
	// postings until the offsets are summed below.
	ix.seg = make([]int, 2*len(items)+1)
	for r, it := range items {
		ix.seg[2*r+2] = int(freq(it))
	}
	if ix.rank != nil {
		for it := range ix.rank {
			ix.rank[it] = -1
		}
		for r, it := range items {
			ix.rank[it] = int32(r)
		}
	} else {
		for r, it := range items {
			ix.rankMap[it] = int32(r)
		}
	}

	// Each transaction's ranks, ascending, and its prefix postings.
	prefix := make([]int, ix.maxLen+1) // prefix length by transaction length
	for l := range prefix {
		prefix[l] = l - indexAlpha(ix.cm, theta, l) + 1
	}
	ix.xoff = make([]int, len(ts)+1)
	ix.xr = make([]int32, occurrences)
	for j, t := range ts {
		x := ix.xr[ix.xoff[j] : ix.xoff[j]+len(t)]
		ix.xoff[j+1] = ix.xoff[j] + len(t)
		for k, it := range t {
			x[k] = ix.rankOf(it)
		}
		slices.Sort(x)
		for _, r := range x[:prefix[len(x)]] {
			ix.seg[2*r+1]++
		}
	}

	// Offsets, then the postings. fill[r] is rank r's next prefix slot
	// and seg[2r+1] its next slot among the rest, until it is reset.
	fill := make([]int, len(items))
	at := 0
	for r := range items {
		n, np := ix.seg[2*r+2], ix.seg[2*r+1]
		ix.seg[2*r], fill[r], ix.seg[2*r+1] = at, at, at+np
		at += n
	}
	ix.seg[2*len(items)] = at
	ix.post = make([]int32, occurrences)
	for j := range ts {
		x := ix.xr[ix.xoff[j]:ix.xoff[j+1]]
		p := prefix[len(x)]
		for _, r := range x[:p] {
			ix.post[fill[r]] = int32(j)
			fill[r]++
		}
		for _, r := range x[p:] {
			ix.post[ix.seg[2*r+1]] = int32(j)
			ix.seg[2*r+1]++
		}
	}
	for r := range items {
		ix.seg[2*r+1] = fill[r]
	}
	return ix
}

// checkIndexMatchesReference fails unless NewIndex and newIndexReference
// build the same index over ts: every field but the counted-form func.
func checkIndexMatchesReference(t *testing.T, label string, ts []dataset.Transaction, theta float64, m Measure) {
	t.Helper()
	got, want := NewIndex(ts, theta, m), newIndexReference(ts, theta, m)
	got.cm, want.cm = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: index differs from the reference build\ngot:  %+v\nwant: %+v", label, got, want)
	}
}

// TestNewIndexMatchesReference: the counting-sort build equals the
// comparison-sort build, field for field, on random transactions with
// dense, sparse and negative ids for every measure and θ on the boundary
// grid, and on the hub-basket and planted-label fixtures.
func TestNewIndexMatchesReference(t *testing.T) {
	const universe, maxLen = 12, 5
	regimes := []struct {
		name string
		id   func(k int) dataset.Item
	}{
		{"dense", func(k int) dataset.Item { return dataset.Item(k) }},
		{"sparse", func(k int) dataset.Item { return dataset.Item(k * 1_000_003) }},
		{"negative", func(k int) dataset.Item { return dataset.Item(k - universe/2) }},
	}
	thetas := indexThetas(maxLen)
	r := rand.New(rand.NewSource(17))
	for _, rg := range regimes {
		for trial := 0; trial < 7; trial++ {
			ts := make([]dataset.Transaction, r.Intn(60))
			for i := range ts {
				items := make([]dataset.Item, r.Intn(maxLen+1))
				for k := range items {
					items[k] = rg.id(r.Intn(universe))
				}
				ts[i] = dataset.NewTransaction(items...)
			}
			for _, m := range []Measure{Jaccard, Dice, Cosine, Overlap} {
				for _, theta := range thetas {
					checkIndexMatchesReference(t, fmt.Sprintf("%s trial %d %s θ=%v", rg.name, trial, m, theta), ts, theta, m)
				}
			}
		}
	}
	for _, theta := range []float64{0.3, 0.45, 0.5, 0.8} {
		checkIndexMatchesReference(t, fmt.Sprintf("hub baskets θ=%v", theta), hubBaskets(), theta, Jaccard)
		checkIndexMatchesReference(t, fmt.Sprintf("planted labels θ=%v", theta), plantedLabels(1000), theta, Jaccard)
	}
}
