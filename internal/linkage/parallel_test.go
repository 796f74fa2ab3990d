package linkage

import (
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// randomTransactions draws n transactions of 1..maxItems items over a
// vocabulary of vocab ids.
func randomTransactions(r *rand.Rand, n, maxItems, vocab int) []dataset.Transaction {
	ts := make([]dataset.Transaction, n)
	for i := range ts {
		items := make([]dataset.Item, 1+r.Intn(maxItems))
		for k := range items {
			items[k] = dataset.Item(r.Intn(vocab))
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	return ts
}

// kernelInput is a neighbor set that picks the builder's kernel by
// itself: the work counts say which ran.
type kernelInput struct {
	name string
	nb   *similarity.Neighbors
	bits bool // the bit rows fit the memory guard, so every row runs on bits
}

// plantedLabels returns n planted-label records over 4 classes, the
// dense shape: at θ=0.5 each point has about n/4 neighbors.
func plantedLabels(n int) []dataset.Transaction {
	return synth.Labeled(synth.LabeledConfig{Records: n, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: 1}).Trans
}

// kernelInputs returns the inputs that run each kernel:
//   - dense planted labels (n=300, θ=0.5): bits;
//   - sparse baskets (n=500, θ=0.6): 1,424 list entries, too few for
//     the 8,000 words of bit rows, so every row counts pairs;
//   - 300 planted-label records then 300 baskets on disjoint items
//     (θ=0.5): the records' lists pay for the bit rows, so the baskets'
//     short rows run on bits too.
func kernelInputs() []kernelInput {
	records := plantedLabels(300)
	mixed := append([]dataset.Transaction(nil), records...)
	baskets := synth.Basket(synth.BasketConfig{Transactions: 300, Clusters: 30, TemplateItems: 15, TransactionSize: 8, Seed: 1})
	for _, b := range baskets.Trans {
		items := make([]dataset.Item, len(b))
		for k, it := range b {
			items[k] = it + 1000
		}
		mixed = append(mixed, dataset.NewTransaction(items...))
	}

	// The sparse input core's TestEngineWorkCounts merges.
	sparse := synth.Basket(synth.BasketConfig{Transactions: 500, Clusters: 5, TemplateItems: 15, TransactionSize: 12, Seed: 1})

	return []kernelInput{
		{"dense-labels n=300", similarity.ComputeIndexed(records, 0.5, similarity.Options{}), true},
		{"sparse-baskets n=500", similarity.ComputeIndexed(sparse.Trans, 0.6, similarity.Options{}), false},
		{"mixed n=600", similarity.ComputeIndexed(mixed, 0.5, similarity.Options{}), true},
	}
}

// checkKernels fails unless every row ran on the kernel the input is
// meant to pick.
func checkKernels(t *testing.T, in kernelInput, work buildWork) {
	t.Helper()
	bitRows, pairRows := 0, in.nb.Len()
	if in.bits {
		bitRows, pairRows = pairRows, bitRows
	}
	if work.bitRows != bitRows || work.pairRows != pairRows {
		t.Fatalf("%s: %d bit rows, %d pair rows; want %d and %d",
			in.name, work.bitRows, work.pairRows, bitRows, pairRows)
	}
}

// The builder must agree bit for bit with both reference algorithms —
// the paper's serial pair counting and the dense bitset-intersection
// oracle — across randomized workloads varying n, θ, measure,
// self-inclusion and worker count, and on the inputs that run each of
// its kernels. Run under -race this also exercises the builder's
// chunked rows for data races.
func TestParallelCSRMatchesOracles(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	measures := []struct {
		name string
		m    similarity.Measure
	}{
		{"jaccard", similarity.Jaccard},
		{"dice", similarity.Dice},
		{"cosine", similarity.Cosine},
		{"overlap", similarity.Overlap},
	}
	thetas := []float64{0.1, 0.3, 0.5, 0.7}
	workerCounts := []int{1, 2, 3, 8}

	for trial := 0; trial < 40; trial++ {
		n := r.Intn(160)
		ts := randomTransactions(r, n, 8, 24)
		theta := thetas[r.Intn(len(thetas))]
		me := measures[r.Intn(len(measures))]
		includeSelf := r.Intn(2) == 0
		opts := similarity.Options{Measure: me.m, IncludeSelf: includeSelf}
		var nb *similarity.Neighbors
		if me.m == similarity.Jaccard {
			nb = similarity.ComputeIndexed(ts, theta, opts)
		} else {
			nb = similarity.Compute(ts, theta, opts)
		}

		serial := CompactFrom(FromNeighbors(nb))
		dense := CompactFrom(Dense(nb))
		if !serial.Equal(dense) {
			t.Fatalf("trial %d (n=%d θ=%g %s self=%v): reference algorithms disagree",
				trial, n, theta, me.name, includeSelf)
		}
		for _, w := range workerCounts {
			par := Build(nb, Options{Workers: w})
			if !par.Equal(serial) {
				t.Fatalf("trial %d (n=%d θ=%g %s self=%v workers=%d): parallel CSR differs from serial",
					trial, n, theta, me.name, includeSelf, w)
			}
			if !par.Equal(dense) {
				t.Fatalf("trial %d (n=%d θ=%g %s self=%v workers=%d): parallel CSR differs from dense oracle",
					trial, n, theta, me.name, includeSelf, w)
			}
		}
	}

	for _, in := range kernelInputs() {
		serial := CompactFrom(FromNeighbors(in.nb))
		if !serial.Equal(CompactFrom(Dense(in.nb))) {
			t.Fatalf("%s: reference algorithms disagree", in.name)
		}
		for _, w := range []int{1, 2, 4, 8} {
			got, work := build(in.nb, w)
			checkKernels(t, in, work)
			if !got.Equal(serial) {
				t.Fatalf("%s workers=%d: Build differs from the oracles", in.name, w)
			}
		}
	}
}

// Over many shards the table must be identical for every worker count,
// including counts far above the shard count.
func TestParallelCSRWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ts := randomTransactions(r, 1200, 10, 40)
	nb := similarity.ComputeIndexed(ts, 0.4, similarity.Options{})
	want := Build(nb, Options{Workers: 1})
	if !want.Equal(CompactFrom(FromNeighbors(nb))) {
		t.Fatal("single-worker CSR differs from serial reference")
	}
	for _, w := range []int{2, 3, 4, 16, 64} {
		if got := Build(nb, Options{Workers: w}); !got.Equal(want) {
			t.Fatalf("workers=%d produced a different table", w)
		}
	}
}

// Build is the production link path at every input size, so it must
// reproduce the paper's serial pair counting (FromNeighbors) directly —
// from the degenerate sizes through a single chunk (30) to several
// (767, 818), and on the inputs that run each kernel — at every worker
// count.
func TestBuildMatchesFromNeighbors(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 30, 767, 818} {
		ts := randomTransactions(r, n, 6, 20)
		nb := similarity.ComputeIndexed(ts, 0.3, similarity.Options{})
		want := CompactFrom(FromNeighbors(nb))
		for _, w := range []int{1, 2, 4, 8} {
			if got := Build(nb, Options{Workers: w}); !got.Equal(want) {
				t.Fatalf("n=%d workers=%d: Build differs from FromNeighbors", n, w)
			}
		}
	}
	for _, in := range kernelInputs() {
		want := CompactFrom(FromNeighbors(in.nb))
		for _, w := range []int{1, 2, 4, 8} {
			got, work := build(in.nb, w)
			checkKernels(t, in, work)
			if !got.Equal(want) {
				t.Fatalf("%s workers=%d: Build differs from FromNeighbors", in.name, w)
			}
		}
	}
}

// TestBuildWorkCounts pins the link work — rows counted by each kernel,
// pair-counting increments and bitset words — on the dense and sparse
// inputs core's TestEngineWorkCounts merges and on the mixed input. The
// counts depend only on the lists, so a change to the memory guard or
// to either kernel's work fails here without a wall-clock threshold.
func TestBuildWorkCounts(t *testing.T) {
	want := map[string]buildWork{
		"dense-labels n=300":   {bitRows: 300, words: 121971},
		"sparse-baskets n=500": {pairRows: 500, increments: 2888},
		"mixed n=600":          {bitRows: 600, words: 284647},
	}
	for _, in := range kernelInputs() {
		pin, ok := want[in.name]
		if !ok {
			continue
		}
		for _, w := range []int{1, 2, 4, 8} {
			if _, work := build(in.nb, w); work != pin {
				t.Errorf("%s workers=%d: work %+v, want %+v", in.name, w, work, pin)
			}
		}
	}
}

// Paper example sanity directly through the builder.
func TestParallelCSRPaperExample(t *testing.T) {
	ts := paperTransactions()
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	lt := Build(nb, Options{Workers: 4})
	within := lt.Get(0, 1)
	across := lt.Get(0, 10)
	if across >= within {
		t.Fatalf("link across clusters (%d) not below link within (%d)", across, within)
	}
	if lt.Get(9, 13) != 0 {
		t.Fatalf("disconnected pair has links: %d", lt.Get(9, 13))
	}
}
