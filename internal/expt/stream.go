package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/stream"
)

// StreamBenchRow is one phase of the streaming-ingestion bench: sustained
// Ingest throughput through the full streamer (coalescing batcher, drift
// estimator, outlier parking) during one regime of the synthetic stream.
type StreamBenchRow struct {
	Workers      int     `json:"workers"`
	Mode         string  `json:"mode"`  // full | incremental refresh path
	Phase        string  `json:"phase"` // stable | drift | post-refresh
	Points       int     `json:"points"`
	Batches      int     `json:"batches"`
	Sec          float64 `json:"sec"`
	PointsPerSec float64 `json:"points_per_sec"`
	OutlierRate  float64 `json:"outlier_rate"` // drift estimate at phase end
	Generation   uint64  `json:"generation"`   // serving generation at phase end
}

// StreamBenchSummary is the refresh ledger for one (workers, mode)
// setting: what the drift detector and the background re-cluster + swap
// actually cost, and proof that no parked point was silently discarded.
type StreamBenchSummary struct {
	Workers              int     `json:"workers"`
	Mode                 string  `json:"mode"` // full | incremental
	Refreshes            int64   `json:"refreshes"`
	FailedRefreshes      int64   `json:"failed_refreshes"`
	IncrementalFallbacks int64   `json:"incremental_fallbacks"`
	DetectionDelayPoints int64   `json:"detection_delay_points"`
	RefreshInputPoints   int     `json:"refresh_input_points"`
	RefreshSec           float64 `json:"refresh_sec"`
	SwapPauseMs          float64 `json:"swap_pause_ms"`
	FinalGeneration      uint64  `json:"final_generation"`
	PostSwapAccuracy     float64 `json:"post_swap_accuracy"` // generator-label accuracy on fresh drifted probes
	DroppedOutliers      int64   `json:"dropped_outliers"`   // counted ring evictions (accounted, not silent)
	PointsLost           int64   `json:"points_lost"`        // ledger leak: parked points in NO bucket — must be 0
}

// StreamBenchReport is the BENCH_stream.json payload.
type StreamBenchReport struct {
	Host       string               `json:"host"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	NumCPU     int                  `json:"numcpu"`
	Quick      bool                 `json:"quick"`
	Rows       []StreamBenchRow     `json:"rows"`
	Summaries  []StreamBenchSummary `json:"summaries"`
	Notes      []string             `json:"notes"`
}

// streamRegime generates the bench's synthetic stream: market-basket
// transactions drawn from per-template item pools, templates disjoint,
// and two regimes (different base offsets) sharing no items — so a
// regime change makes every arriving point an outlier to the old model.
// Each point's generating template is its ground-truth label, so the
// bench can score post-swap admission accuracy against the generator.
type streamRegime struct {
	base, templates, width, size int
	rng                          *rand.Rand
}

func (g *streamRegime) batch(n int) []dataset.Transaction {
	ts, _ := g.batchLabeled(n)
	return ts
}

func (g *streamRegime) batchLabeled(n int) ([]dataset.Transaction, []string) {
	ts := make([]dataset.Transaction, n)
	labels := make([]string, n)
	for i := range ts {
		tpl := g.rng.Intn(g.templates)
		labels[i] = fmt.Sprintf("t%d", g.base+tpl)
		items := make([]dataset.Item, 0, g.size)
		for len(items) < g.size {
			items = append(items, dataset.Item(g.base+tpl*64+g.rng.Intn(g.width)))
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	return ts, labels
}

// BenchStream drives the streaming ingestion loop through a regime
// change and writes sustained throughput per phase plus the refresh
// ledger (detection delay, re-cluster cost, swap pause, post-swap
// accuracy, outlier conservation) as JSON — the perf record behind
// `rockbench -stream`. Each workers setting runs TWICE, once per refresh
// mode: the full path re-clusters the retained reservoir plus the
// outlier ring from scratch; the incremental path seeds the re-cluster
// with the frozen model's labeled clusters and only adds the parked
// outliers. The streamer is the real thing end to end: the serve
// batcher, the drift estimator, the bounded buffers, and the background
// re-cluster + atomic swap; assignments of the first batch are verified
// against Model.AssignBatch before timing.
func BenchStream(w io.Writer, opts Options) error {
	const theta = 0.35
	stablePoints, postPoints := 50_000, 50_000
	retain := 4096
	if opts.Quick {
		stablePoints, postPoints = 5_000, 5_000
		retain = 1024
	}
	const batchSize = 256

	report := StreamBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"the stream is synthetic market baskets from disjoint per-template item pools; at the changepoint the generator switches to a second regime sharing no items with the first, so every arriving point is an outlier to the serving model until the refresh.",
			fmt.Sprintf("each phase ingests raw-id batches of %d points through Streamer.Ingest (serve batcher MaxBatch %d, so every batch size-flushes); points_per_sec is wall-clock sustained throughput including admission, parking, and drift accounting.", batchSize, batchSize),
			"the drift phase runs from the changepoint until the background refresh has completed and swapped — its throughput includes ingest concurrent with the re-cluster, i.e. the cost of refreshing while serving.",
			"mode=full re-clusters the retained reservoir + outlier ring from scratch; mode=incremental seeds the re-cluster with the frozen model's labeled clusters and adds only the parked outliers, so refresh_input_points and refresh_sec shrink with the reservoir out of the input.",
			"detection_delay_points counts stream points between the changepoint and the detector firing (EWMA window 512, threshold 0.5); swap_pause_ms is the serve-stack swap itself (generation store + old-generation drain), not the re-cluster, which runs in the background for refresh_sec.",
			"post_swap_accuracy scores fresh drifted probes through the live ingest path against the generator's template labels; points_lost is the outlier-conservation leak (parked points in no ledger bucket) and must be zero in both modes.",
			"the first batch's assignments were verified against Model.AssignBatch before any timing.",
		},
	}

	for _, workers := range []int{1, 4} {
		for _, mode := range []string{"full", "incremental"} {
			regA := &streamRegime{base: 0, templates: 4, width: 12, size: 8, rng: rand.New(rand.NewSource(opts.Seed + 11))}
			regB := &streamRegime{base: 100_000, templates: 4, width: 12, size: 8, rng: rand.New(rand.NewSource(opts.Seed + 13))}

			train := regA.batch(2000)
			ccfg := core.Config{Theta: theta, K: 4, Seed: opts.Seed + 1, Workers: workers}
			res, err := core.Cluster(train, ccfg)
			if err != nil {
				return fmt.Errorf("expt: stream bench warmup clustering: %w", err)
			}
			model, err := core.Freeze(train, res, ccfg)
			if err != nil {
				return fmt.Errorf("expt: stream bench freeze: %w", err)
			}

			st, err := stream.New(model, stream.Config{
				Cluster:       core.Config{Theta: theta, K: 8, Seed: opts.Seed + 2, Workers: workers},
				RetainSample:  retain,
				OutlierBuffer: retain,
				Incremental:   mode == "incremental",
				Seed:          opts.Seed + 3,
			})
			if err != nil {
				return fmt.Errorf("expt: stream bench streamer: %w", err)
			}

			// Verify the ingest path answers exactly as the model before timing.
			probe := regA.batch(batchSize)
			if got := st.Ingest(probe); !reflect.DeepEqual(got.Assignments, model.AssignBatch(probe, 1)) {
				return fmt.Errorf("expt: streamed assignments disagree with Model.AssignBatch — refusing to record timings")
			}

			phase := func(name string, gen *streamRegime, points int, until func() bool) StreamBenchRow {
				batches := 0
				start := time.Now()
				for fed := 0; fed < points || (until != nil && !until()); fed += batchSize {
					st.Ingest(gen.batch(batchSize))
					batches++
					if until != nil && batches*batchSize > 16_000_000 {
						break // refresh never completed; the summary will show it
					}
				}
				sec := time.Since(start).Seconds()
				s := st.Stats()
				return StreamBenchRow{
					Workers:      workers,
					Mode:         mode,
					Phase:        name,
					Points:       batches * batchSize,
					Batches:      batches,
					Sec:          sec,
					PointsPerSec: float64(batches*batchSize) / sec,
					OutlierRate:  s.OutlierRate,
					Generation:   s.Generation,
				}
			}

			report.Rows = append(report.Rows, phase("stable", regA, stablePoints, nil))
			changepoint := st.Stats().Seen

			report.Rows = append(report.Rows, phase("drift", regB, 0, func() bool {
				return st.Stats().Refreshes >= 1
			}))
			st.Quiesce()

			report.Rows = append(report.Rows, phase("post-refresh", regB, postPoints, nil))
			st.Quiesce()

			// Post-swap admission accuracy on fresh drifted probes,
			// scored against the generator's template labels.
			probeQs, probeLabels := regB.batchLabeled(2048)
			acc := metrics.Evaluate(st.Ingest(probeQs).Assignments, probeLabels).Accuracy
			st.Quiesce()

			s := st.Stats()
			report.Summaries = append(report.Summaries, StreamBenchSummary{
				Workers:              workers,
				Mode:                 mode,
				Refreshes:            s.Refreshes,
				FailedRefreshes:      s.FailedRefreshes,
				IncrementalFallbacks: s.IncrementalFallbacks,
				DetectionDelayPoints: s.LastTriggerSeen - changepoint,
				RefreshInputPoints:   s.LastRefreshPoints,
				RefreshSec:           s.LastRefreshSec,
				SwapPauseMs:          s.LastSwapPauseSec * 1e3,
				FinalGeneration:      s.Generation,
				PostSwapAccuracy:     acc,
				DroppedOutliers:      s.DroppedOutliers,
				PointsLost:           s.Outliers - (s.RefreshedOutliers + s.ReadmittedOutliers + int64(s.PendingOutliers) + s.DroppedOutliers),
			})
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding stream bench report: %w", err)
	}
	return nil
}
