package expt

import (
	"fmt"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// runA6 compares the exact θ-query index's neighbor phase against MinHash
// banded LSH on growing market-basket inputs: wall-clock time for the
// neighbor phase, edge recall, and end-to-end clustering quality. The
// expected shape: recall stays near 1 for θ above the band threshold,
// and clustering quality is unchanged.
func runA6(opts Options) (*Report, error) {
	ns := []int{2000, 4000, 8000}
	if opts.Quick {
		ns = []int{500, 1000}
	}
	// The workload includes a pool of universally popular "hub" items
	// (NoiseItems/NoiseRate): their posting lists grow linearly with n,
	// so a full postings count degrades toward O(n²) candidate pairs,
	// while MinHash signatures are insensitive to individual hub items.
	// This is the regime (realistic for market baskets) LSH was built
	// for; the exact index's prefix probe reads around the hubs too.
	theta := 0.45
	lshOpts := func() similarity.LSHOptions {
		// Band threshold (1/32)^(1/3) ≈ 0.31 < θ.
		return similarity.LSHOptions{Hashes: 96, Bands: 32, Seed: opts.Seed + 1}
	}

	timeExact := Series{Name: "exact (s)"}
	timeRef := Series{Name: "lsh reference (s)"}
	timeLSH := Series{Name: "lsh pipeline (s)"}
	recall := Series{Name: "edge recall"}
	headers := []string{"n", "exact s", "ref s", "lsh s", "recall", "exact err", "lsh err"}
	var rows [][]string
	for _, n := range ns {
		d := synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        10,
			TemplateItems:   15,
			TransactionSize: 12,
			NoiseItems:      15,
			NoiseRate:       0.15,
			Seed:            opts.Seed + int64(n),
		})
		var exact, approx *similarity.Neighbors
		te := timeIt(func() { exact = similarity.ComputeIndexed(d.Trans, theta, similarity.Options{}) })
		tr := timeIt(func() { similarity.ComputeLSHReference(d.Trans, theta, lshOpts()) })
		tl := timeIt(func() { approx = similarity.ComputeLSH(d.Trans, theta, lshOpts()) })
		_, _, exactEdges := exact.Stats()
		_, _, lshEdges := approx.Stats()
		rec := 1.0
		if exactEdges > 0 {
			rec = float64(lshEdges) / float64(exactEdges)
		}
		timeExact.X = append(timeExact.X, float64(n))
		timeExact.Y = append(timeExact.Y, te)
		timeRef.X = append(timeRef.X, float64(n))
		timeRef.Y = append(timeRef.Y, tr)
		timeLSH.X = append(timeLSH.X, float64(n))
		timeLSH.Y = append(timeLSH.Y, tl)
		recall.X = append(recall.X, float64(n))
		recall.Y = append(recall.Y, rec)

		exactRes, err := core.Cluster(d.Trans, core.Config{Theta: theta, K: 10, Seed: 1})
		if err != nil {
			return nil, err
		}
		lshRes, err := core.Cluster(d.Trans, core.Config{Theta: theta, K: 10, Seed: 1,
			LSHNeighbors: true, LSHHashes: 96, LSHBands: 32})
		if err != nil {
			return nil, err
		}
		evE := metrics.Evaluate(exactRes.Assign, d.Labels)
		evL := metrics.Evaluate(lshRes.Assign, d.Labels)
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", te), fmt.Sprintf("%.3f", tr), fmt.Sprintf("%.3f", tl),
			fmt.Sprintf("%.4f", rec),
			fmt.Sprintf("%.4f", evE.Error), fmt.Sprintf("%.4f", evL.Error),
		})
	}
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Series: []Series{timeExact, timeRef, timeLSH, recall},
		Notes: []string{
			"LSH: 96 hashes, 32 bands (candidate threshold ≈ 0.31 < θ = 0.45); candidates verified exactly, so no false-positive neighbors.",
			"columns: 'ref s' is the prototype map-based ComputeLSHReference, 'lsh s' the sort-based sharded pipeline (byte-identical neighbor lists, see TestLSHOracle).",
			"measured shape: recall ≈ 0.97 at identical clustering error. The sort-based pipeline retires the per-band hash maps and per-point candidate sets that dominated the prototype's runtime. The exact index probes each basket's rarest items instead of counting the hubs' postings, so it stays near-linear too; BENCH_neighbors.json times both up to 10⁵ points.",
		},
	}, nil
}
