package rock

import (
	"io"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/stream"
)

// Core clustering types, re-exported from the engine.
type (
	// Config holds every ROCK parameter; Theta and K are mandatory.
	Config = core.Config
	// Result is the outcome of a clustering run: assignments, clusters,
	// outliers and run statistics.
	Result = core.Result
	// Stats reports the quantities of the paper's analysis (neighbor
	// densities, link pairs, merges, prunings).
	Stats = core.Stats
	// FTheta maps θ to the criterion exponent f(θ).
	FTheta = core.FTheta
	// Goodness selects the merge score: GoodnessROCK (the default),
	// GoodnessLinkCount or GoodnessLinksPerPair.
	Goodness = core.Goodness
	// QRockConfig parameterizes the QROCK variant.
	QRockConfig = core.QRockConfig
	// MergeStep is one dendrogram entry recorded with Config.TraceMerges.
	MergeStep = core.MergeStep
)

// CutTrace replays a merge trace (Result.MergeTrace over
// len(Result.TracePoints) singletons) and stops at k clusters, returning
// members by trace singleton index — clusterings at every granularity
// from a single run.
func CutTrace(n int, steps []MergeStep, k int) ([][]int, error) {
	return core.CutTrace(n, steps, k)
}

// Cluster runs the full ROCK pipeline over the transactions: optional
// Chernoff-scale sampling, θ-neighbor computation, link computation,
// outlier pruning, heap-driven agglomeration and — when sampling — the
// labeling pass for the remaining points.
func Cluster(ts []Transaction, cfg Config) (*Result, error) {
	return core.Cluster(ts, cfg)
}

// ClusterDataset is a convenience wrapper over Cluster for a Dataset.
func ClusterDataset(d *Dataset, cfg Config) (*Result, error) {
	return core.Cluster(d.Trans, cfg)
}

// QRock clusters by connected components of the θ-neighbor graph — the
// QROCK simplification of ROCK for workloads where the component
// structure is the clustering.
func QRock(ts []Transaction, cfg QRockConfig) (*Result, error) {
	return core.QRock(ts, cfg)
}

// ChunkedConfig parameterizes ChunkedCluster.
type ChunkedConfig = core.ChunkedConfig

// ChunkedCluster adapts ROCK to datasets that cannot be clustered
// wholesale: cluster each chunk independently, keep representative points
// per chunk cluster, cluster the representatives down to the final K, and
// let every point inherit its chunk cluster's final assignment. Memory is
// bounded by chunk size plus the representative set.
func ChunkedCluster(ts []Transaction, cfg ChunkedConfig) (*Result, error) {
	return core.ChunkedCluster(ts, cfg)
}

// WriteResult serializes a clustering result as versioned JSON.
func WriteResult(w io.Writer, res *Result) error { return core.WriteResult(w, res) }

// ReadResult deserializes a result written by WriteResult.
func ReadResult(r io.Reader) (*Result, error) { return core.ReadResult(r) }

// Model is an immutable, goroutine-safe snapshot of a clustering run:
// the labeled points, their inverted item postings, and the (measure, θ,
// f) metadata the labeling score needs — everything required to answer
// Assign queries forever without re-clustering. Build one with Freeze or
// FreezeDataset, persist it with Model.Save, and reload it in any later
// process with LoadModel; Assign and AssignBatch are bit-identical to
// the pipeline's labeling phase over the frozen subsets.
type Model = core.Model

// Freeze snapshots a clustering run into a servable Model. The labeled
// subsets are the run's own (Result.LabelSets) whenever the run drew
// them — a model frozen from a sampled run reproduces that run's
// labeling exactly — and otherwise are drawn fresh from res.Clusters by
// the same pass the labeling phase uses (cfg.LabelFraction /
// cfg.MaxLabelPoints, seeded by cfg.Seed). cfg.Measure must be nil or a
// built-in measure — custom similarity functions cannot be serialized.
func Freeze(ts []Transaction, res *Result, cfg Config) (*Model, error) {
	return core.Freeze(ts, res, cfg)
}

// FreezeDataset is Freeze for a Dataset: the model additionally freezes
// the dataset's vocabulary, enabling Model.AssignDataset on inputs read
// under a different vocabulary (the CLI's -save / -load flow).
func FreezeDataset(d *Dataset, res *Result, cfg Config) (*Model, error) {
	return core.FreezeDataset(d, res, cfg)
}

// LoadModel reads a model written by Model.Save, verifying magic,
// version and checksum. Failures wrap the ErrModel* sentinels.
func LoadModel(r io.Reader) (*Model, error) { return core.LoadModel(r) }

// Load failure sentinels, re-exported so callers can branch with
// errors.Is on the exact failure mode LoadModel reports.
var (
	ErrModelTruncated = core.ErrModelTruncated
	ErrModelMagic     = core.ErrModelMagic
	ErrModelVersion   = core.ErrModelVersion
	ErrModelChecksum  = core.ErrModelChecksum
	ErrModelMeasure   = core.ErrModelMeasure
	ErrModelCorrupt   = core.ErrModelCorrupt
)

// Serving stack, re-exported from the serve package: an HTTP server over
// a frozen Model with request coalescing and atomic hot-swap reload (the
// machinery behind cmd/rockserve).
type (
	// ServeConfig parameterizes a Server (batch size, flush deadline,
	// workers, drain timeout, reload path). The zero value uses the
	// documented defaults.
	ServeConfig = serve.Config
	// Server answers assignment traffic from a hot-swappable frozen
	// model. Mount Server.Handler on any http.Server; Server.Swap or
	// POST /-/reload replaces the model without dropping a request.
	Server = serve.Server
	// ServeStats is the GET /stats snapshot: traffic counters, batching
	// effectiveness, and latency quantiles.
	ServeStats = serve.Stats
	// AssignRequest is the POST /assign body (item names or raw ids).
	AssignRequest = serve.AssignRequest
	// AssignResponse answers POST /assign: one cluster index per query
	// plus the model generation that answered.
	AssignResponse = serve.AssignResponse
	// ReloadResponse answers POST /-/reload.
	ReloadResponse = serve.ReloadResponse
)

// NewServer builds a Server serving the given frozen model.
func NewServer(m *Model, cfg ServeConfig) *Server { return serve.New(m, cfg) }

// Streaming ingestion, re-exported from the stream package: a long-lived
// loop over the serving stack that admits arriving points via the frozen
// θ-test, parks what the model cannot place, watches the outlier rate for
// distribution drift, and re-clusters + hot-swaps in the background when
// the model has gone stale (the machinery behind rockserve -stream).
type (
	// StreamConfig parameterizes a Streamer (drift window, refresh
	// threshold, buffer bounds, the embedded ServeConfig). The zero value
	// uses the documented defaults and inherits θ, K, and the measure
	// from the initial model.
	StreamConfig = stream.Config
	// Streamer admits arriving points against the live model, detects
	// drift, and refreshes the model without dropping a request. Mount
	// Streamer.Handler for the HTTP surface (POST /ingest, GET /streamz,
	// plus the embedded serving endpoints).
	Streamer = stream.Streamer
	// StreamStats is the GET /streamz snapshot: admission counters, the
	// drift estimate, and the refresh ledger.
	StreamStats = stream.Stats
	// IngestResult answers one Streamer.Ingest call: assignments, the
	// generation that answered, and the drift estimate.
	IngestResult = stream.IngestResult
	// IngestRequest is the POST /ingest body (item names or raw ids).
	IngestRequest = stream.IngestRequest
	// IngestResponse answers POST /ingest.
	IngestResponse = stream.IngestResponse
)

// NewStreamer builds a Streamer serving the given frozen model at
// generation 1.
func NewStreamer(m *Model, cfg StreamConfig) (*Streamer, error) { return stream.New(m, cfg) }

// MarketBasketF is the paper's exponent choice f(θ) = (1−θ)/(1+θ).
func MarketBasketF(theta float64) float64 { return core.MarketBasketF(theta) }

// ConstantF returns an exponent function that ignores θ.
func ConstantF(c float64) FTheta { return core.ConstantF(c) }

// The merge scores Config.Goodness selects from.
const (
	// GoodnessROCK, the zero value, is the paper's goodness measure:
	// cross links normalized by their expectation under the f(θ)
	// neighbor model.
	GoodnessROCK = core.GoodnessROCK
	// GoodnessLinkCount merges by raw cross-link count (ablation).
	GoodnessLinkCount = core.GoodnessLinkCount
	// GoodnessLinksPerPair merges by links per cross pair (ablation).
	GoodnessLinksPerPair = core.GoodnessLinksPerPair
)

// Criterion evaluates the paper's criterion function E_l over a
// clustering given a pairwise link oracle.
func Criterion(clusters [][]int, links func(i, j int) int, f float64) float64 {
	return core.Criterion(clusters, links, f)
}

// ChernoffSampleSize returns the sample size guaranteeing, with
// probability 1−delta, at least frac·clusterSize points of a cluster in a
// uniform sample from n points — the paper's bound for sizing the
// clustering sample.
func ChernoffSampleSize(n, clusterSize int, frac, delta float64) int {
	return core.ChernoffSampleSize(n, clusterSize, frac, delta)
}

// ensure the facade types stay aliases of the dataset model (compile-time
// check that ClusterDataset accepts what ReadCSV produces).
var _ = func(d *dataset.Dataset) []Transaction { return d.Trans }
