package linkage

import (
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
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

// The parallel sharded CSR builder must agree bit for bit with both
// reference algorithms — the paper's serial pair counting and the dense
// bitset-intersection oracle — across randomized workloads varying n, θ,
// measure, self-inclusion and worker count. Run under -race this also
// exercises the builder's sharding for data races.
func TestParallelCSRMatchesOracles(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	measures := []struct {
		name string
		m    similarity.Measure
	}{
		{"jaccard", nil}, // nil selects the fast-path Jaccard
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
		if me.m == nil {
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
			par := FromNeighborsCSR(nb, w)
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
}

// Over many shards the table must be identical for every worker count,
// including counts far above the shard count.
func TestParallelCSRWorkerInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ts := randomTransactions(r, 1200, 10, 40)
	nb := similarity.ComputeIndexed(ts, 0.4, similarity.Options{})
	want := FromNeighborsCSR(nb, 1)
	if !want.Equal(CompactFrom(FromNeighbors(nb))) {
		t.Fatal("single-worker CSR differs from serial reference")
	}
	for _, w := range []int{2, 3, 4, 16, 64} {
		if got := FromNeighborsCSR(nb, w); !got.Equal(want) {
			t.Fatalf("workers=%d produced a different table", w)
		}
	}
}

// Build is the production link path at every input size, so it must
// reproduce the paper's serial pair counting (FromNeighbors) directly —
// from the degenerate sizes through a single shard (30) to several
// (767, 818) — at every worker count.
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
}

// The transpose inside FromNeighborsCSR makes it exact even for
// asymmetric neighbor lists (which no built-in measure produces, but the
// pair-counting definition permits): it must match FromNeighbors, whose
// contract is pair counting, not the symmetric-only Dense oracle.
func TestParallelCSRAsymmetricLists(t *testing.T) {
	nb := &similarity.Neighbors{Lists: [][]int32{
		{1, 2, 3}, // 0's neighbors
		{2},       // 1 lists 2 but not 0
		{},        // 2 lists nobody
		{0, 1},    // 3
	}}
	want := CompactFrom(FromNeighbors(nb))
	for _, w := range []int{1, 2, 4} {
		if got := FromNeighborsCSR(nb, w); !got.Equal(want) {
			t.Fatalf("workers=%d: asymmetric lists mishandled", w)
		}
	}
}

// Paper example sanity directly through the parallel builder.
func TestParallelCSRPaperExample(t *testing.T) {
	ts := paperTransactions()
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	lt := FromNeighborsCSR(nb, 4)
	within := lt.Get(0, 1)
	across := lt.Get(0, 10)
	if across >= within {
		t.Fatalf("link across clusters (%d) not below link within (%d)", across, within)
	}
	if lt.Get(9, 13) != 0 {
		t.Fatalf("disconnected pair has links: %d", lt.Get(9, 13))
	}
}
