package similarity

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/synth"
)

// The LSH oracle: the sort-based sharded pipeline (ComputeLSH) must
// produce neighbor lists identical to the prototype implementation
// (ComputeLSHReference) for every configuration and worker count — same
// hash family, same banding, same verification. Run under -race in CI.

// lshOracleData mixes the regimes the pipeline has to get right:
// clustered groups, duplicate transactions, empty transactions, and a
// few hub items present in most rows.
func lshOracleData(seed int64, n int) []dataset.Transaction {
	r := rand.New(rand.NewSource(seed))
	ts := make([]dataset.Transaction, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%37 == 36:
			ts = append(ts, dataset.NewTransaction()) // empty
		case i%11 == 10 && i > 0:
			ts = append(ts, ts[r.Intn(i)]) // duplicate of an earlier row
		default:
			base := (i % 5) * 25
			items := make([]dataset.Item, 0, 12)
			for k := 0; k < 10; k++ {
				items = append(items, dataset.Item(base+r.Intn(18)))
			}
			items = append(items, dataset.Item(200+r.Intn(3))) // hubs
			ts = append(ts, dataset.NewTransaction(items...))
		}
	}
	return ts
}

func TestLSHOracle(t *testing.T) {
	ts := lshOracleData(71, 300)
	configs := []struct {
		name  string
		theta float64
		opts  LSHOptions
	}{
		{"defaults", 0.5, LSHOptions{Seed: 1}},
		{"uneven-rounded", 0.5, LSHOptions{Hashes: 100, Bands: 24, Seed: 2}},
		{"bands-exceed-hashes", 0.5, LSHOptions{Hashes: 8, Bands: 50, Seed: 3}},
		{"include-self", 0.6, LSHOptions{Seed: 4, IncludeSelf: true}},
		{"theta-zero-self", 0, LSHOptions{Seed: 5, IncludeSelf: true}},
		{"dice", 0.55, LSHOptions{Seed: 6, Measure: Dice}},
		{"cosine", 0.55, LSHOptions{Seed: 7, Measure: Cosine}},
		{"overlap", 0.7, LSHOptions{Seed: 8, Measure: Overlap}},
		{"custom-measure", 0.4, LSHOptions{Seed: 9, Measure: Attribute(12)}},
		{"sharp-bands", 0.45, LSHOptions{Hashes: 96, Bands: 32, Seed: 10}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			ref := ComputeLSHReference(ts, cfg.theta, cfg.opts)
			for _, workers := range []int{1, 2, 4, 8} {
				opts := cfg.opts
				opts.Workers = workers
				got := ComputeLSH(ts, cfg.theta, opts)
				if !neighborsEqual(ref, got) {
					t.Fatalf("workers=%d: pipeline diverges from reference", workers)
				}
			}
		})
	}
}

func TestLSHWorkerInvariance(t *testing.T) {
	ts := lshOracleData(72, 400)
	base := ComputeLSH(ts, 0.5, LSHOptions{Seed: 11, Workers: 1})
	for _, workers := range []int{2, 4, 8} {
		got := ComputeLSH(ts, 0.5, LSHOptions{Seed: 11, Workers: workers})
		if !neighborsEqual(base, got) {
			t.Fatalf("workers=%d produced different neighbor lists than workers=1", workers)
		}
		if got.LSH.CandidatePairs != base.LSH.CandidatePairs ||
			got.LSH.VerifiedEdges != base.LSH.VerifiedEdges ||
			got.LSH.Recall != base.LSH.Recall ||
			got.LSH.RecallSampled != base.LSH.RecallSampled {
			t.Fatalf("workers=%d ledger %+v differs from workers=1 ledger %+v", workers, got.LSH, base.LSH)
		}
	}
}

func TestLSHOptionsRounding(t *testing.T) {
	cases := []struct {
		in            LSHOptions
		hashes, bands int
	}{
		{LSHOptions{}, 96, 24},                        // defaults
		{LSHOptions{Hashes: 96, Bands: 24}, 96, 24},   // already even
		{LSHOptions{Hashes: 100, Bands: 24}, 120, 24}, // rounded up, not truncated
		{LSHOptions{Hashes: 97, Bands: 32}, 128, 32},
		{LSHOptions{Hashes: 8, Bands: 50}, 8, 8}, // bands clamped to hashes
		{LSHOptions{Hashes: 5, Bands: 3}, 6, 3},  // clamp then round
		{LSHOptions{Hashes: -1, Bands: -1}, 96, 24},
	}
	for _, c := range cases {
		got := c.in.withDefaults()
		if got.Hashes != c.hashes || got.Bands != c.bands {
			t.Errorf("withDefaults(%+v) = hashes %d bands %d, want %d/%d",
				c.in, got.Hashes, got.Bands, c.hashes, c.bands)
		}
		if got.Hashes%got.Bands != 0 {
			t.Errorf("withDefaults(%+v): %d hashes not divisible by %d bands — rows would be dropped",
				c.in, got.Hashes, got.Bands)
		}
	}
}

// TestLSHDefaultsDocumented pins the defaults the Config comment and
// ARCHITECTURE.md state: a run with a zero LSHOptions reports 96 hashes
// in 24 bands in its ledger, and the band threshold
// (1/Bands)^(Bands/Hashes) sits at ≈0.45. The benches pass the sharper
// 96/32 (≈0.31) explicitly; they do not rely on these defaults.
func TestLSHDefaultsDocumented(t *testing.T) {
	l := ComputeLSH(lshOracleData(1, 60), 0.5, LSHOptions{}).LSH
	if l.Hashes != 96 || l.Bands != 24 {
		t.Fatalf("LSHOptions{} ran with %d/%d, want the documented 96/24", l.Hashes, l.Bands)
	}
	threshold := math.Pow(1/float64(l.Bands), float64(l.Bands)/float64(l.Hashes))
	if math.Abs(threshold-0.45) > 0.01 {
		t.Fatalf("default band threshold %.3f, documented as ≈0.45", threshold)
	}
}

// TestLSHRecallPropertyHubHeavy is the recall property test against the
// exact oracle on the hub-heavy basket workload (universally popular
// noise items whose posting lists grow with n): at θ = 0.45 with the
// sharp 96/32 banding (band threshold ≈ 0.31), measured edge recall
// must be ≥ 0.95, the ledger's sampled estimate must agree with the
// true recall, and no false positives may appear.
func TestLSHRecallPropertyHubHeavy(t *testing.T) {
	d := synth.Basket(synth.BasketConfig{
		Transactions:    3000,
		Clusters:        15,
		TemplateItems:   15,
		TransactionSize: 12,
		NoiseItems:      15,
		NoiseRate:       0.15,
		Seed:            99,
	})
	theta := 0.45
	exact := ComputeIndexed(d.Trans, theta, Options{})
	approx := ComputeLSH(d.Trans, theta, LSHOptions{Hashes: 96, Bands: 32, Seed: 12, RecallSample: 500})

	var exactTotal, hit int
	for i := range d.Trans {
		for _, j := range exact.Lists[i] {
			exactTotal++
			if approx.Contains(i, j) {
				hit++
			}
		}
		for _, j := range approx.Lists[i] {
			if !exact.Contains(i, j) {
				t.Fatalf("false positive %d-%d", i, j)
			}
		}
	}
	if exactTotal == 0 {
		t.Fatal("degenerate workload: no exact edges")
	}
	recall := float64(hit) / float64(exactTotal)
	if recall < 0.95 {
		t.Fatalf("edge recall %.4f < 0.95 (%d of %d edges)", recall, hit, exactTotal)
	}

	st := approx.LSH
	if st == nil {
		t.Fatal("no LSH ledger on the result")
	}
	if st.RecallSampled != 500 {
		t.Fatalf("ledger sampled %d rows, want 500", st.RecallSampled)
	}
	if st.VerifiedEdges <= 0 || st.CandidatePairs < st.VerifiedEdges {
		t.Fatalf("implausible ledger: %+v", st)
	}
	if diff := st.Recall - recall; diff < -0.03 || diff > 0.03 {
		t.Fatalf("sampled recall %.4f far from true recall %.4f", st.Recall, recall)
	}
}

// TestLSHRecallSampleKnob: negative disables the estimate, and the
// estimate stays deterministic for a fixed seed.
func TestLSHRecallSampleKnob(t *testing.T) {
	ts := lshOracleData(73, 200)
	off := ComputeLSH(ts, 0.5, LSHOptions{Seed: 13, RecallSample: -1})
	if off.LSH.RecallSampled != 0 || off.LSH.Recall != 1 {
		t.Fatalf("disabled estimate still measured: %+v", off.LSH)
	}
	a := ComputeLSH(ts, 0.5, LSHOptions{Seed: 13})
	b := ComputeLSH(ts, 0.5, LSHOptions{Seed: 13, Workers: 4})
	if a.LSH.Recall != b.LSH.Recall || a.LSH.RecallSampled != b.LSH.RecallSampled {
		t.Fatalf("recall estimate not deterministic: %+v vs %+v", a.LSH, b.LSH)
	}
	if !neighborsEqual(off, a) {
		t.Fatal("recall sampling changed the neighbor lists")
	}
}

// TestLSHCustomMeasureBruteRecall: with a custom measure the recall
// estimator cannot use the item index (the measure may be positive on
// disjoint pairs) and must fall back to the brute scan.
func TestLSHCustomMeasureBruteRecall(t *testing.T) {
	ts := lshOracleData(74, 150)
	nb := ComputeLSH(ts, 0.4, LSHOptions{Seed: 14, Measure: Attribute(12), RecallSample: 50})
	if nb.LSH.RecallSampled != 50 {
		t.Fatalf("sampled %d rows, want 50", nb.LSH.RecallSampled)
	}
	if nb.LSH.Recall < 0 || nb.LSH.Recall > 1 {
		t.Fatalf("recall %g outside [0,1]", nb.LSH.Recall)
	}
}

func ExampleLSHOptions() {
	// The banding S-curve: with 96 hashes in 32 bands of 3 rows, a pair
	// with Jaccard s becomes a candidate with probability
	// 1-(1-s³)³², putting the candidate threshold near (1/32)^(1/3)≈0.31
	// — comfortably under a θ of 0.45, which is what keeps recall high.
	d := synth.Basket(synth.BasketConfig{Transactions: 500, Clusters: 5, Seed: 7})
	nb := ComputeLSH(d.Trans, 0.45, LSHOptions{Hashes: 96, Bands: 32, Seed: 1})
	fmt.Println(nb.LSH.VerifiedEdges > 0, nb.LSH.CandidatePairs >= nb.LSH.VerifiedEdges)
	// Output: true true
}
