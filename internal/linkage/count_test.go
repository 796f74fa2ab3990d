package linkage

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// checkCount fails unless the count pass returns Build's pair count on
// nb at Workers 1, 2, 4 and 8, with the same work at each, and returns
// that work.
func checkCount(t *testing.T, label string, nb *similarity.Neighbors) buildWork {
	t.Helper()
	var first buildWork
	for k, w := range []int{1, 2, 4, 8} {
		want := Build(nb, Options{Workers: w}).Pairs()
		got, work := countPairs(nb, w)
		if got != want || CountPairs(nb, Options{Workers: w}) != want {
			t.Fatalf("%s workers=%d: count pass %d pairs, Build %d", label, w, got, want)
		}
		if k == 0 {
			first = work
		} else if work != first {
			t.Fatalf("%s workers=%d: work %+v, %+v at one worker", label, w, work, first)
		}
	}
	return first
}

// guardLists returns lists over 64 points with the given number of
// entries, each point listing itself and then its successors: the bit
// rows of 64 points take 2·64·1 = 128 words, so 128 entries meet the
// memory guard and 127 miss it.
func guardLists(entries int) *similarity.Neighbors {
	const n = 64
	nb := &similarity.Neighbors{Lists: make([][]int32, n)}
	for e := 0; e < entries; e++ {
		l := e % n
		nb.Lists[l] = append(nb.Lists[l], int32((l+e/n)%n))
	}
	for l, list := range nb.Lists {
		if len(list) == 2 && list[1] < list[0] {
			nb.Lists[l] = []int32{list[1], list[0]}
		}
	}
	return nb
}

// TestCountPairsMatchesBuild: the count pass returns exactly
// Build(nb).Pairs() at every worker count, on random lists over the
// measures, θ and self-inclusion; on the inputs that run each kernel,
// where every row must run on the kernel Build picks; at the memory
// guard's edge; and on the asymmetric lists, empty inputs and lists.
func TestCountPairsMatchesBuild(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	measures := []similarity.Measure{similarity.Jaccard, similarity.Dice, similarity.Cosine, similarity.Overlap}
	for trial := 0; trial < 60; trial++ {
		n := r.Intn(200)
		theta := []float64{0.1, 0.3, 0.5, 0.7}[r.Intn(4)]
		m := measures[r.Intn(len(measures))]
		self := r.Intn(2) == 0
		nb := similarity.ComputeIndexed(randomTransactions(r, n, 8, 24), theta, similarity.Options{Measure: m, IncludeSelf: self})
		checkCount(t, fmt.Sprintf("trial %d (n=%d θ=%g %s self=%v)", trial, n, theta, m, self), nb)
	}

	for _, in := range kernelInputs() {
		checkKernels(t, in, checkCount(t, in.name, in.nb))
	}
	self := similarity.Options{IncludeSelf: true}
	sparse := synth.Basket(synth.BasketConfig{Transactions: 500, Clusters: 5, TemplateItems: 15, TransactionSize: 12, Seed: 1})
	for _, in := range []kernelInput{
		{name: "dense-labels n=300 self", nb: similarity.ComputeIndexed(plantedLabels(300), 0.5, self), bits: true},
		{name: "sparse-baskets n=500 self", nb: similarity.ComputeIndexed(sparse.Trans, 0.6, self)},
	} {
		checkKernels(t, in, checkCount(t, in.name, in.nb))
	}

	for _, g := range []struct {
		entries int
		bits    bool
	}{{128, true}, {127, false}} {
		nb := guardLists(g.entries)
		in := kernelInput{name: fmt.Sprintf("guard %d entries", g.entries), nb: nb, bits: g.bits}
		checkKernels(t, in, checkCount(t, in.name, nb))
	}

	checkCount(t, "asymmetric", asymmetricLists())
	checkCount(t, "no points", &similarity.Neighbors{})
	checkCount(t, "empty lists", &similarity.Neighbors{Lists: make([][]int32, 5)})
	checkCount(t, "one list", &similarity.Neighbors{Lists: [][]int32{nil, {0, 2, 3}, nil, nil}})
}

// TestCountPairsWorkCounts pins the count pass's work on
// TestBuildWorkCounts' inputs: its rows per kernel, the OR words of the
// bit rows, and the list entries past i the pair rows mark, which are
// as many as Build's increments. A change to the guard or to either
// row loop fails here without a wall-clock threshold.
func TestCountPairsWorkCounts(t *testing.T) {
	want := map[string]buildWork{
		"dense-labels n=300":   {bitRows: 300, words: 66476},
		"sparse-baskets n=500": {pairRows: 500, increments: 2888},
		"mixed n=600":          {bitRows: 600, words: 173257},
	}
	for _, in := range kernelInputs() {
		pin, ok := want[in.name]
		if !ok {
			continue
		}
		for _, w := range []int{1, 2, 4, 8} {
			if _, work := countPairs(in.nb, w); work != pin {
				t.Errorf("%s workers=%d: work %+v, want %+v", in.name, w, work, pin)
			}
		}
	}
}
