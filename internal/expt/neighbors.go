package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// NeighborBenchRow is one point of the neighbor-phase sweep: the exact
// θ-query index against the prototype map-based LSH and the sort-based
// sharded pipeline, on the hub-heavy basket workload whose hub postings
// grow with n.
type NeighborBenchRow struct {
	N     int     `json:"n"`
	Theta float64 `json:"theta"`
	// ExactSec and RefSec are zero when the variant was skipped (the
	// million-point row times only the pipeline).
	ExactSec float64 `json:"exact_sec,omitempty"`
	RefSec   float64 `json:"ref_sec,omitempty"`
	LSHSec   float64 `json:"lsh_sec"`
	// SpeedupVsExact/Ref are LSH pipeline speedups (exact_sec/lsh_sec,
	// ref_sec/lsh_sec); zero when the comparator was skipped.
	SpeedupVsExact float64 `json:"speedup_vs_exact,omitempty"`
	SpeedupVsRef   float64 `json:"speedup_vs_ref,omitempty"`
	// Recall is edge recall against the exact neighbor relation:
	// measured over every exact edge when the exact index ran
	// (RecallMeasured), otherwise the pipeline's sampled-ledger estimate.
	Recall         float64 `json:"recall"`
	RecallMeasured bool    `json:"recall_measured"`
	ExactEdges     int64   `json:"exact_edges,omitempty"`
	CandidatePairs int64   `json:"candidate_pairs"`
	VerifiedEdges  int64   `json:"verified_edges"`
	RecallSampled  int     `json:"recall_sampled"`
}

// NeighborBenchChunked records the end-to-end chunked clustering run at
// the long-mode scale: the acceptance artifact for "a million points
// through the LSH path with the quality ledger populated".
type NeighborBenchChunked struct {
	N              int     `json:"n"`
	K              int     `json:"k"`
	ChunkSize      int     `json:"chunk_size"`
	ChunkK         int     `json:"chunk_k"`
	Sec            float64 `json:"sec"`
	Clusters       int     `json:"clusters"`
	Outliers       int     `json:"outliers"`
	CandidatePairs int64   `json:"candidate_pairs"`
	VerifiedEdges  int64   `json:"verified_edges"`
	RecallSampled  int     `json:"recall_sampled"`
	Recall         float64 `json:"recall"`
}

// NeighborBenchReport is the BENCH_neighbors.json payload.
type NeighborBenchReport struct {
	Host       string                `json:"host"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"numcpu"`
	Quick      bool                  `json:"quick"`
	Long       bool                  `json:"long"`
	Rows       []NeighborBenchRow    `json:"rows"`
	Chunked    *NeighborBenchChunked `json:"chunked,omitempty"`
	Notes      []string              `json:"notes"`
}

// neighborBenchData builds the hub-heavy basket workload: a pool of
// universally popular noise items whose posting lists grow linearly with
// n, so a full postings count slides toward O(n²) candidate work, while
// cluster count scales with n to keep the true neighbor graph sparse.
// The exact index escapes it by probing each basket's rare items; this
// is the regime (realistic for market baskets) LSH was built for.
func neighborBenchData(n int, seed int64) []dataset.Transaction {
	clusters := n / 200
	if clusters < 5 {
		clusters = 5
	}
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        clusters,
		TemplateItems:   15,
		TransactionSize: 12,
		NoiseItems:      15,
		NoiseRate:       0.15,
		Seed:            seed + int64(n),
	})
	return d.Trans
}

// BenchNeighbors times the neighbor phase three ways — the exact θ-query
// index (ComputeIndexed), prototype map-based LSH (ComputeLSHReference),
// sort-based sharded LSH pipeline (ComputeLSH) — and writes the result
// as JSON, with the host it ran on: the perf-trajectory record behind
// `rockbench -neighbors`. Recall is measured exactly wherever the exact
// index runs. With Options.Long the sweep adds a 10⁶-point
// pipeline-only row (comparators skipped) and an end-to-end
// ChunkedCluster run at 10⁶ through the LSH path.
func BenchNeighbors(w io.Writer, opts Options) error {
	ns := []int{10000, 30000, 100000}
	if opts.Quick {
		ns = []int{2000, 5000}
	}
	theta := 0.45
	lshOpts := func() similarity.LSHOptions {
		// Band threshold (1/32)^(1/3) ≈ 0.31 < θ = 0.45 keeps recall high.
		return similarity.LSHOptions{Hashes: 96, Bands: 32, Seed: opts.Seed + 1, RecallSample: 256}
	}

	report := NeighborBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Long:       opts.Long,
		Notes: []string{
			cpuNote(),
			"workload: hub-heavy baskets (15 universal noise items, rate 0.15) with n/200 clusters — hub posting lists grow with n, so a full postings count tends to O(n²) candidate work.",
			"exact is ComputeIndexed on the exact θ-query index, which probes each basket's rarest items when that reads fewer postings; ref is the prototype map-based ComputeLSHReference; lsh is the sort-based sharded pipeline ComputeLSH (96 hashes / 32 bands, θ=0.45; neighbor lists byte-identical to ref, see TestLSHOracle).",
			"recall_measured=true rows compare every exact edge against the pipeline's lists; the million-point row reports the pipeline's own sampled-recall ledger instead.",
			"timings are best-of-3 below n=10⁵ and single-run at or above it.",
		},
	}

	for _, n := range ns {
		ts := neighborBenchData(n, opts.Seed)
		runs := 3
		if n >= 100000 {
			runs = 1
		}
		var exact, approx *similarity.Neighbors
		row := NeighborBenchRow{N: n, Theta: theta}
		row.ExactSec = bestOf(runs, func() { exact = similarity.ComputeIndexed(ts, theta, similarity.Options{}) })
		row.RefSec = bestOf(runs, func() { similarity.ComputeLSHReference(ts, theta, lshOpts()) })
		row.LSHSec = bestOf(runs, func() { approx = similarity.ComputeLSH(ts, theta, lshOpts()) })
		row.SpeedupVsExact = row.ExactSec / row.LSHSec
		row.SpeedupVsRef = row.RefSec / row.LSHSec

		var hit int64
		for i := range ts {
			for _, j := range exact.Lists[i] {
				row.ExactEdges++
				if approx.Contains(i, j) {
					hit++
				}
			}
		}
		row.Recall = 1
		if row.ExactEdges > 0 {
			row.Recall = float64(hit) / float64(row.ExactEdges)
		}
		row.RecallMeasured = true
		row.CandidatePairs = approx.LSH.CandidatePairs
		row.VerifiedEdges = approx.LSH.VerifiedEdges
		row.RecallSampled = approx.LSH.RecallSampled
		report.Rows = append(report.Rows, row)
	}

	if opts.Long {
		n := 1000000
		ts := neighborBenchData(n, opts.Seed)
		var approx *similarity.Neighbors
		row := NeighborBenchRow{N: n, Theta: theta}
		row.LSHSec = timeIt(func() { approx = similarity.ComputeLSH(ts, theta, lshOpts()) })
		row.Recall = approx.LSH.Recall
		row.RecallSampled = approx.LSH.RecallSampled
		row.CandidatePairs = approx.LSH.CandidatePairs
		row.VerifiedEdges = approx.LSH.VerifiedEdges
		report.Rows = append(report.Rows, row)
		approx = nil

		// End-to-end: a million points through ChunkedCluster on the LSH
		// neighbor path, quality ledger aggregated across every sub-run.
		ch := &NeighborBenchChunked{N: n, K: 100, ChunkSize: 50000, ChunkK: 200}
		var res *core.Result
		ch.Sec = timeIt(func() {
			var err error
			res, err = core.ChunkedCluster(ts, core.ChunkedConfig{
				Base: core.Config{
					Theta: theta, K: ch.K, Seed: opts.Seed + 1,
					MinNeighbors: 1,
					LSHNeighbors: true, LSHHashes: 96, LSHBands: 32,
				},
				ChunkSize: ch.ChunkSize,
				ChunkK:    ch.ChunkK,
			})
			if err != nil {
				panic(err) // configuration is static and valid
			}
		})
		ch.Clusters = res.K()
		ch.Outliers = len(res.Outliers)
		ch.CandidatePairs = res.Stats.LSHCandidatePairs
		ch.VerifiedEdges = res.Stats.LSHVerifiedEdges
		ch.RecallSampled = res.Stats.LSHRecallSampled
		ch.Recall = res.Stats.LSHRecall
		report.Chunked = ch
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding neighbor bench report: %w", err)
	}
	return nil
}
