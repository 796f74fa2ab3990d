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
// θ-query index (ComputeIndexed) on the hub-heavy basket workload,
// whose hub postings grow with n.
type NeighborBenchRow struct {
	N          int     `json:"n"`
	Theta      float64 `json:"theta"`
	ExactSec   float64 `json:"exact_sec"`
	ExactEdges int64   `json:"exact_edges"`
}

// NeighborBenchChunked records the end-to-end chunked clustering run at
// the long-mode scale: a million points through ChunkedCluster.
type NeighborBenchChunked struct {
	N         int     `json:"n"`
	K         int     `json:"k"`
	ChunkSize int     `json:"chunk_size"`
	ChunkK    int     `json:"chunk_k"`
	Sec       float64 `json:"sec"`
	Clusters  int     `json:"clusters"`
	Outliers  int     `json:"outliers"`
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
// The exact index escapes it by probing each basket's rare items.
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

// BenchNeighbors times the neighbor phase, the exact θ-query index
// (ComputeIndexed), at θ=0.45 and θ=0.3 as n grows, and writes the
// result as JSON, with the host it ran on: the perf-trajectory record
// behind `rockbench -neighbors`. Every time is the median of 3 runs.
// With Options.Long the sweep adds n=3×10⁵ at both θ, a 10⁶-point row at
// θ=0.45, and an end-to-end ChunkedCluster run at 10⁶.
func BenchNeighbors(w io.Writer, opts Options) error {
	ns := []int{10000, 30000, 100000}
	if opts.Quick {
		ns = []int{2000, 5000}
	}
	if opts.Long {
		ns = append(ns, 300000)
	}
	thetas := []float64{0.45, 0.3}

	report := NeighborBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Long:       opts.Long,
		Notes: []string{
			cpuNote(),
			"workload: hub-heavy baskets (15 universal noise items, rate 0.15) with n/200 clusters — hub posting lists grow with n, so a full postings count tends to O(n²) candidate work.",
			"exact is ComputeIndexed on the exact θ-query index, which probes each basket's rarest items when the probe's worst case stays within four full counts.",
			"every time is the median of 3 runs; the million-point row runs at θ=0.45 only.",
		},
	}

	row := func(ts []dataset.Transaction, theta float64) NeighborBenchRow {
		var nb *similarity.Neighbors
		r := NeighborBenchRow{N: len(ts), Theta: theta}
		r.ExactSec = medianOf(3, func() { nb = similarity.ComputeIndexed(ts, theta, similarity.Options{}) })
		_, _, edges := nb.Stats()
		r.ExactEdges = int64(edges)
		return r
	}
	for _, n := range ns {
		ts := neighborBenchData(n, opts.Seed)
		for _, theta := range thetas {
			report.Rows = append(report.Rows, row(ts, theta))
		}
	}

	if opts.Long {
		n := 1000000
		theta := thetas[0]
		ts := neighborBenchData(n, opts.Seed)
		report.Rows = append(report.Rows, row(ts, theta))

		// End-to-end: a million points through ChunkedCluster.
		ch := &NeighborBenchChunked{N: n, K: 100, ChunkSize: 50000, ChunkK: 200}
		var res *core.Result
		ch.Sec = medianOf(3, func() {
			var err error
			res, err = core.ChunkedCluster(ts, core.ChunkedConfig{
				Base:      core.Config{Theta: theta, K: ch.K, Seed: opts.Seed + 1, MinNeighbors: 1},
				ChunkSize: ch.ChunkSize,
				ChunkK:    ch.ChunkK,
			})
			if err != nil {
				panic(err) // configuration is static and valid
			}
		})
		ch.Clusters = res.K()
		ch.Outliers = len(res.Outliers)
		report.Chunked = ch
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding neighbor bench report: %w", err)
	}
	return nil
}
