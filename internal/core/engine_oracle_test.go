package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// checkEnginesAgree runs the arena engine on goodness kind good and the
// map-based reference on the matching formula, on one configuration, and
// fails on any divergence, field by field. For a kind other than
// GoodnessROCK a second leg checks GoodnessROCK too. ROCK's formula
// rounds differently with its sizes swapped, so that leg pins the
// arena's size order (younger cluster first).
func checkEnginesAgree(t *testing.T, label string, n int, lt *linkage.Compact, k int, good Goodness, f float64, weedTrigger, weedMaxSize int, trace bool) {
	t.Helper()
	ref := agglomerateMap(n, lt, k, referenceGoodness[good], f, weedTrigger, weedMaxSize, trace)
	arena := agglomerate(n, lt, k, good, f, weedTrigger, weedMaxSize, trace)
	checkResultsEqual(t, fmt.Sprintf("%s [arena, goodness %d]", label, good), &arena, &ref)
	if good != GoodnessROCK {
		checkEnginesAgree(t, label, n, lt, k, GoodnessROCK, f, weedTrigger, weedMaxSize, trace)
	}
}

// checkResultsEqual fails on any field-level divergence between an
// engine's result and the reference's.
func checkResultsEqual(t *testing.T, label string, got, ref *engineResult) {
	t.Helper()
	if !reflect.DeepEqual(got.clusters, ref.clusters) {
		t.Fatalf("%s: clusters diverge\ngot: %v\nref: %v", label, got.clusters, ref.clusters)
	}
	if !reflect.DeepEqual(got.weeded, ref.weeded) {
		t.Fatalf("%s: weeded diverge: got %v, ref %v", label, got.weeded, ref.weeded)
	}
	if got.merges != ref.merges {
		t.Fatalf("%s: merges %d vs %d", label, got.merges, ref.merges)
	}
	if got.stoppedEarly != ref.stoppedEarly {
		t.Fatalf("%s: stoppedEarly %v vs %v", label, got.stoppedEarly, ref.stoppedEarly)
	}
	if !reflect.DeepEqual(got.trace, ref.trace) {
		if len(got.trace) != len(ref.trace) {
			t.Fatalf("%s: trace length %d vs %d", label, len(got.trace), len(ref.trace))
		}
		for i := range got.trace {
			if got.trace[i] != ref.trace[i] {
				t.Fatalf("%s: trace step %d diverges\ngot: %+v\nref: %+v", label, i, got.trace[i], ref.trace[i])
			}
		}
	}
}

// TestEngineOracleRandom proves the arena engine byte-identical to the
// map-based reference across ≥50 seeded configurations varying n, the
// link structure, k, f(θ), the goodness kind (cycling all three),
// weeding, and tracing.
func TestEngineOracleRandom(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(120)
		lt := randomLinkTable(r, n)
		k := 1 + r.Intn(6)
		theta := 0.05 + 0.9*r.Float64()
		f := MarketBasketF(theta)
		// seed/3, not seed: trace cycles with seed%3.
		good := Goodness(int(seed/3) % len(referenceGoodness))
		weedTrigger, weedMaxSize := 0, 0
		if seed%2 == 1 {
			weedTrigger = 1 + r.Intn(n)
			weedMaxSize = 1 + r.Intn(3)
		}
		trace := seed%3 != 0
		label := fmt.Sprintf("seed=%d n=%d k=%d weed=%d/%d trace=%v",
			seed, n, k, weedTrigger, weedMaxSize, trace)
		checkEnginesAgree(t, label, n, lt, k, good, f, weedTrigger, weedMaxSize, trace)
	}
}

// TestEngineOracleDense exercises the engines on denser structured link
// tables than the sparse random ones above: cliques with noise edges,
// where long merge chains and frequent best-partner invalidations stress
// the incremental repair paths.
func TestEngineOracleDense(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(40)
		groups := 2 + r.Intn(4)
		tb := &linkage.Table{Adj: make([]map[int32]int32, n)}
		for i := 0; i < n; i++ {
			tb.Adj[i] = make(map[int32]int32)
		}
		link := func(i, j, c int) {
			if i != j {
				tb.Adj[i][int32(j)] = int32(c)
				tb.Adj[j][int32(i)] = int32(c)
			}
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if i%groups == j%groups {
					link(i, j, 1+r.Intn(4))
				}
			}
		}
		for e := 0; e < n/2; e++ {
			link(r.Intn(n), r.Intn(n), 1+r.Intn(2))
		}
		lt := linkage.CompactFrom(tb)
		label := fmt.Sprintf("dense seed=%d n=%d groups=%d", seed, n, groups)
		checkEnginesAgree(t, label, n, lt, groups, GoodnessROCK, 1.0/3.0, 0, 0, true)
		checkEnginesAgree(t, label+" weed", n, lt, groups, GoodnessROCK, 1.0/3.0, n/2, 2, true)
	}
}

// TestEngineOracleDegenerateExponent runs the random configurations at
// f = 0 and f = −0.5 (exponents 1 and 0), where the expected-link
// denominator is zero or negative and the goodness falls back to the raw
// link count: the fallback must agree between the power table and
// rockGoodness, ties between equal counts included.
func TestEngineOracleDegenerateExponent(t *testing.T) {
	for _, c := range []float64{0, -0.5} {
		for seed := int64(0); seed < 16; seed++ {
			r := rand.New(rand.NewSource(seed))
			n := 2 + r.Intn(120)
			lt := randomLinkTable(r, n)
			k := 1 + r.Intn(6)
			f := ConstantF(c)(0.05 + 0.9*r.Float64())
			weedTrigger, weedMaxSize := 0, 0
			if seed%2 == 1 {
				weedTrigger = 1 + r.Intn(n)
				weedMaxSize = 1 + r.Intn(3)
			}
			label := fmt.Sprintf("f=%g seed=%d n=%d k=%d weed=%d/%d", f, seed, n, k, weedTrigger, weedMaxSize)
			checkEnginesAgree(t, label, n, lt, k, GoodnessROCK, f, weedTrigger, weedMaxSize, true)
		}
	}
}

// denseLabelsTable builds the link table of a planted-label workload
// shaped like the zoo's `labeled` row: 4 classes over 10 attributes of 5
// values, 10% noise, θ = 0.5. About a quarter of the points are each
// point's neighbors, so merged rows are dense and most merges consume
// the cached best of most of their neighbors — the runner-up bound's
// home ground.
func denseLabelsTable(n int, seed int64) *linkage.Compact {
	d := synth.Labeled(synth.LabeledConfig{Records: n, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: seed})
	nb := similarity.ComputeIndexed(d.Trans, 0.5, similarity.Options{})
	return linkage.Build(nb, linkage.Options{})
}

// TestEngineOracleDenseLabels runs both engines on dense planted-label
// link tables, plain, traced, and with weeding.
func TestEngineOracleDenseLabels(t *testing.T) {
	f := MarketBasketF(0.5)
	for seed := int64(1); seed <= 3; seed++ {
		n := 300
		lt := denseLabelsTable(n, seed)
		label := fmt.Sprintf("dense-labels seed=%d n=%d", seed, n)
		checkEnginesAgree(t, label, n, lt, 4, GoodnessROCK, f, 0, 0, false)
		checkEnginesAgree(t, label+" trace", n, lt, 1, GoodnessROCK, f, 0, 0, true)
		checkEnginesAgree(t, label+" weed+trace", n, lt, 4, GoodnessROCK, f, n/2, 2, true)
	}
}

// TestEngineOraclePipelineData runs both engines on link tables produced
// by the real pipeline (θ-neighbors of transaction data) rather than
// synthetic adjacency.
func TestEngineOraclePipelineData(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 40 + r.Intn(60)
		ts := make([]dataset.Transaction, n)
		for i := range ts {
			items := make([]dataset.Item, 2+r.Intn(6))
			for k := range items {
				items[k] = dataset.Item(r.Intn(18))
			}
			ts[i] = dataset.NewTransaction(items...)
		}
		theta := 0.2 + 0.3*r.Float64()
		nb := similarity.Compute(ts, theta, similarity.Options{})
		lt := linkage.Build(nb, linkage.Options{})
		label := fmt.Sprintf("pipeline trial=%d n=%d theta=%.2f", trial, n, theta)
		checkEnginesAgree(t, label, n, lt, 1+r.Intn(4), GoodnessROCK, MarketBasketF(theta), 0, 0, true)
	}
}

// TestEngineOracleParallelPipeline runs both engines on link tables the
// sharded parallel builder produced from clustered basket workloads, at
// sizes well past the randomized oracles above (n = 800 and 2000), with
// and without weeding and tracing. Every worker count must build the same
// table, so the engines see identical input whatever the parallelism.
func TestEngineOracleParallelPipeline(t *testing.T) {
	for _, n := range []int{800, 2000} {
		d := synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        n / 100,
			TemplateItems:   15,
			TransactionSize: 12,
			Seed:            7,
		})
		nb := similarity.ComputeIndexed(d.Trans, 0.6, similarity.Options{})
		lt := linkage.Build(nb, linkage.Options{Workers: 1})
		for _, workers := range []int{2, 4, 8} {
			if !linkage.Build(nb, linkage.Options{Workers: workers}).Equal(lt) {
				t.Fatalf("n=%d: workers=%d built a different link table", n, workers)
			}
		}
		k := n / 100
		f := MarketBasketF(0.6)
		configs := []struct {
			name        string
			weedTrigger int
			weedMaxSize int
			trace       bool
		}{
			{"plain", 0, 0, false},
			{"trace", 0, 0, true},
			{"weed+trace", n / 2, 2, true},
		}
		for _, cfg := range configs {
			label := fmt.Sprintf("n=%d %s", n, cfg.name)
			checkEnginesAgree(t, label, n, lt, k, GoodnessROCK, f, cfg.weedTrigger, cfg.weedMaxSize, cfg.trace)
		}
	}
}

// TestAddCountsOverflow: an aggregated cross-link count past int32 must
// fail loudly, never wrap into a corrupt goodness value.
func TestAddCountsOverflow(t *testing.T) {
	if got := addCounts(1<<30, 1<<30-1); got != 1<<31-1 {
		t.Fatalf("addCounts at the boundary = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("overflowing addCounts did not panic")
		}
	}()
	addCounts(1<<30, 1<<30)
}

// staleScenarioTable builds the link structure for the stale-entry
// regression tests: cliques A={0,1,2}, B={3,4,5}, C={8,9,10} (links 2
// within), a straggler pair {6,7} with the strongest links in the graph,
// and weak bridges 6–0 and 3–8. The straggler merges first (goodness
// ≈7.66 vs ≈1.70 for clique pairs), the cliques complete over the next
// six merges, and at 4 active clusters weeding discards {6,7} — while the
// heap array still physically holds its superseded entries plus the
// invalidated entries of cluster A, whose only remaining link the weed
// severed. The pops that follow must skip all of them.
func staleScenarioTable() (int, *linkage.Compact) {
	pairs := map[[2]int]int{
		{0, 1}: 2, {0, 2}: 2, {1, 2}: 2,
		{3, 4}: 2, {3, 5}: 2, {4, 5}: 2,
		{8, 9}: 2, {8, 10}: 2, {9, 10}: 2,
		{6, 7}: 9,
		{6, 0}: 1, {3, 8}: 1,
	}
	return 11, tableFromPairs(11, pairs)
}

// TestEngineStaleGlobalEntryRegression pins the replacement of the
// reference engine's defensive `continue` (popping a global entry whose
// cluster lost all links): under the lazy heap such entries are
// superseded in place and must never surface. Weeding fires with the
// straggler's entries still inside the heap array and empties cluster A's
// row; the next pop has to discard those stale entries and still find the
// live B–C pair, matching the reference engine exactly.
func TestEngineStaleGlobalEntryRegression(t *testing.T) {
	n, lt := staleScenarioTable()
	res := agglomerate(n, lt, 2, GoodnessROCK, 1.0/3.0, 4, 2, false)
	ref := agglomerateMap(n, lt, 2, rockGoodness, 1.0/3.0, 4, 2, false)
	if !reflect.DeepEqual(res.clusters, ref.clusters) || !reflect.DeepEqual(res.weeded, ref.weeded) {
		t.Fatalf("arena %v/%v, reference %v/%v", res.clusters, res.weeded, ref.clusters, ref.weeded)
	}
	if !reflect.DeepEqual(res.weeded, []int{6, 7}) {
		t.Fatalf("weeded = %v, want the straggler pair", res.weeded)
	}
	want := [][]int{{0, 1, 2}, {3, 4, 5, 8, 9, 10}}
	if !reflect.DeepEqual(res.clusters, want) {
		t.Fatalf("clusters = %v, want %v", res.clusters, want)
	}
	if res.stoppedEarly || ref.stoppedEarly {
		t.Fatal("run must reach k=2 without stopping early")
	}
}

// TestEngineStaleEntriesExhaustHeap drives the same scenario to k=1: once
// B and C merge, only stale and invalidated entries remain in the lazy
// heap's array (cluster A has no links left), so the engine must report
// stoppedEarly rather than popping a dead cluster — the exact situation
// the reference engine's defensive branch guarded against.
func TestEngineStaleEntriesExhaustHeap(t *testing.T) {
	n, lt := staleScenarioTable()
	res := agglomerate(n, lt, 1, GoodnessROCK, 1.0/3.0, 4, 2, false)
	ref := agglomerateMap(n, lt, 1, rockGoodness, 1.0/3.0, 4, 2, false)
	if !res.stoppedEarly || !ref.stoppedEarly {
		t.Fatalf("stoppedEarly: arena %v, reference %v — want both true", res.stoppedEarly, ref.stoppedEarly)
	}
	if !reflect.DeepEqual(res.clusters, ref.clusters) || !reflect.DeepEqual(res.weeded, ref.weeded) {
		t.Fatalf("arena %v/%v, reference %v/%v", res.clusters, res.weeded, ref.clusters, ref.weeded)
	}
	if len(res.clusters) != 2 {
		t.Fatalf("clusters = %v, want the two unlinked survivors", res.clusters)
	}
}
