package core

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// Frozen servable models.
//
// The paper's route to large data is "cluster a Chernoff-sized sample,
// then label everything else" — but the labeler (label_indexed.go) lives
// only as long as the clustering process, so serving assignment queries
// used to mean re-clustering on every start. A Model freezes the
// artifacts the labeling phase needs — the labeled points' transactions,
// the per-cluster normalization denominators, and the (measure, θ, f)
// metadata — into an immutable, goroutine-safe structure that can be
// saved to disk (serialize.go) and loaded into any later process, which
// rebuilds the similarity.Index over the labeled points.
//
// Invariant: Model.Assign is bit-identical to the serial pairwise
// reference labelPoint over the frozen sets (label_reference_test.go).
// The model reuses the very labeler the pipeline's phase 6 runs, whose
// index is exact for every measure and θ (see similarity.Index), and the
// model oracle test enforces the identity across all four measures and
// worker counts under the race detector.

// Model is an immutable snapshot of a clustering run, queryable for
// assignments. All methods are safe for concurrent use: the frozen index
// is read-only and every query carries its own scratch state.
//
// Build one with Freeze (from a Result), FreezeSets (from explicit
// labeled subsets), or LoadModel (from a file written by Save).
type Model struct {
	theta   float64
	fval    float64
	measure similarity.Measure

	// clusterSizes[i] is the full size of cluster i when the model was
	// frozen — metadata for reporting; assignment uses only setSizes.
	clusterSizes []int

	// The frozen labeled points, grouped by cluster: pts[sets[i][j]] is
	// the j-th labeled point of cluster i. sets holds consecutive ranges,
	// so the grouping serializes as the per-cluster set sizes alone.
	pts  []dataset.Transaction
	sets [][]int

	// items, when non-nil, is the frozen vocabulary (item id → name),
	// letting AssignDataset translate queries read under a different
	// vocabulary. nil when the model was frozen from raw ids.
	items []string

	lb      *labeler
	scratch sync.Pool
}

// Freeze snapshots a clustering run into a servable Model, with the
// frozen (measure, θ, f) taken from cfg. The labeled subsets L_i are the
// run's own (Result.LabelSets) whenever the run drew them — so a model
// frozen from a sampled run reproduces that run's labeling phase
// exactly: Assign on any labeling candidate returns the cluster the run
// assigned it to. Runs that never labeled (no sampling) carry no
// subsets, so Freeze draws them fresh from res.Clusters with the same
// labelSets pass the labeling phase uses (cfg.LabelFraction /
// cfg.MaxLabelPoints, seeded by cfg.Seed — deterministic, but a new
// draw, not a replay).
func Freeze(ts []dataset.Transaction, res *Result, cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if res == nil || len(res.Clusters) == 0 {
		return nil, fmt.Errorf("core: cannot freeze a model from a run with no clusters")
	}
	cfg = cfg.withDefaults()
	sets := res.LabelSets
	if len(sets) != len(res.Clusters) {
		sets = labelSets(res.Clusters, cfg, rand.New(rand.NewSource(cfg.Seed)))
	}
	sizes := make([]int, len(res.Clusters))
	for i, c := range res.Clusters {
		sizes[i] = len(c)
	}
	return FreezeSets(ts, sets, sizes, cfg.Theta, cfg.fval(), cfg.Measure)
}

// FreezeDataset is Freeze for a Dataset: the model additionally freezes
// the dataset's vocabulary, enabling AssignDataset on inputs read under a
// different (or later-grown) vocabulary.
func FreezeDataset(d *dataset.Dataset, res *Result, cfg Config) (*Model, error) {
	m, err := Freeze(d.Trans, res, cfg)
	if err != nil {
		return nil, err
	}
	m.items = append([]string(nil), d.Vocab.Names()...)
	return m, nil
}

// FreezeSets builds a Model from explicit labeled subsets: sets[i] lists
// the dataset-global indices of cluster i's labeled points, clusterSizes
// the full cluster sizes (nil defaults to the set sizes), and theta / f /
// m the labeling parameters. Each labeled point must be canonical with no
// negative item (dataset.Transaction.Check); FreezeSets names the first
// that is not. The transactions are deep-copied; the model shares no
// memory with the caller afterwards.
func FreezeSets(ts []dataset.Transaction, sets [][]int, clusterSizes []int, theta, f float64, m similarity.Measure) (*Model, error) {
	if err := checkModelParams(theta, f, m); err != nil {
		return nil, err
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("core: cannot freeze a model with no clusters")
	}
	if clusterSizes == nil {
		clusterSizes = make([]int, len(sets))
		for i, li := range sets {
			clusterSizes[i] = len(li)
		}
	}
	if len(clusterSizes) != len(sets) {
		return nil, fmt.Errorf("core: %d cluster sizes for %d labeled subsets", len(clusterSizes), len(sets))
	}
	setSizes := make([]int, len(sets))
	pts := make([]dataset.Transaction, 0)
	for i, li := range sets {
		setSizes[i] = len(li)
		for _, q := range li {
			if q < 0 || q >= len(ts) {
				return nil, fmt.Errorf("core: labeled point index %d outside the dataset (n=%d)", q, len(ts))
			}
			// Save writes the points as they are and LoadModel rejects
			// malformed ones, so they are refused here, not in a later
			// process.
			if err := ts[q].Check(-1); err != nil {
				return nil, fmt.Errorf("core: transaction %d: %w", q, err)
			}
			pts = append(pts, ts[q].Clone())
		}
	}
	return newModel(pts, setSizes, append([]int(nil), clusterSizes...), theta, f, m)
}

// newModel assembles a Model from already-frozen parts: pts grouped by
// cluster, setSizes giving the per-cluster group lengths. Shared by
// FreezeSets and LoadModel.
func newModel(pts []dataset.Transaction, setSizes, clusterSizes []int, theta, f float64, measure similarity.Measure) (*Model, error) {
	m := &Model{
		theta:        theta,
		fval:         f,
		measure:      measure,
		clusterSizes: clusterSizes,
		pts:          pts,
		sets:         make([][]int, len(setSizes)),
	}
	at := 0
	for i, sz := range setSizes {
		li := make([]int, sz)
		for j := range li {
			li[j] = at
			at++
		}
		m.sets[i] = li
	}
	if at != len(pts) {
		return nil, fmt.Errorf("%w: %d labeled points for set sizes summing to %d", ErrModelCorrupt, len(pts), at)
	}
	m.lb = newLabeler(m.pts, m.sets, theta, f, measure)
	m.scratch.New = func() any { return m.lb.newScratch() }
	return m, nil
}

// K returns the number of clusters the model assigns into.
func (m *Model) K() int { return len(m.sets) }

// Theta returns the frozen neighbor threshold θ.
func (m *Model) Theta() float64 { return m.theta }

// F returns the frozen criterion exponent f(θ).
func (m *Model) F() float64 { return m.fval }

// MeasureName returns the canonical name of the frozen similarity
// measure (similarity.ParseMeasure turns it back into the measure).
func (m *Model) MeasureName() string { return m.measure.String() }

// LabeledPoints returns the total number of frozen labeled points Σ|L_i|.
func (m *Model) LabeledPoints() int { return len(m.pts) }

// ClusterSizes returns a copy of the full cluster sizes at freeze time.
func (m *Model) ClusterSizes() []int { return append([]int(nil), m.clusterSizes...) }

// Items returns the frozen vocabulary (item id → name), or nil when the
// model was frozen from raw ids. The returned slice is a copy.
func (m *Model) Items() []string { return append([]string(nil), m.items...) }

// LabeledGroups returns the model's frozen labeled points and their
// grouping: pts is the flat labeled-point slice and groups[i] lists
// indices into pts belonging to cluster i — the pre-formed seed an
// incremental re-cluster (ClusterSeeded) starts from. The slices are
// fresh copies (the transactions themselves are shared; they are
// immutable), so the caller may append outliers after the reps and hand
// the result straight to ClusterSeeded.
func (m *Model) LabeledGroups() (pts []dataset.Transaction, groups [][]int) {
	pts = append([]dataset.Transaction(nil), m.pts...)
	groups = make([][]int, len(m.sets))
	for i, li := range m.sets {
		groups[i] = append([]int(nil), li...)
	}
	return pts, groups
}

// String summarizes the model for logs and the CLI.
func (m *Model) String() string {
	vocab := "none"
	if m.items != nil {
		vocab = fmt.Sprintf("%d items", len(m.items))
	}
	return fmt.Sprintf("rock model: k=%d theta=%g f=%g measure=%s labeled-points=%d vocab=%s",
		m.K(), m.theta, m.fval, m.measure, len(m.pts), vocab)
}

// Assign returns the cluster index for one query transaction — the
// cluster maximizing N_i / (|L_i|+1)^f over the frozen subsets, ties to
// the smaller index, or -1 when the query has no θ-neighbor among the
// labeled points. Bit-identical to the pairwise reference loop over the
// frozen sets, and safe to call from any number of goroutines
// concurrently.
//
// The query must use the model's item id space; for a dataset read under
// its own vocabulary, use AssignDataset. A query that is not canonical,
// unsorted or with a repeated item, is answered as its canonical form.
func (m *Model) Assign(t dataset.Transaction) int {
	sc := m.scratch.Get().(*labelScratch)
	ci := m.lb.label(canonical(t), sc)
	m.scratch.Put(sc)
	return ci
}

// canonical returns t when it is strictly ascending, and otherwise its
// sorted, deduplicated copy: the index counts a query by its distinct
// items.
func canonical(t dataset.Transaction) dataset.Transaction {
	if t.Valid() {
		return t
	}
	return dataset.NewTransaction(t...)
}

// AssignBatch assigns every query transaction, sharding across workers
// (0 = GOMAXPROCS) on the same chunked-claim loop the labeling phase
// uses: workers claim 64 queries at a time, so a batch of 64 or fewer
// runs on the calling goroutine. Queries are independent, so the output
// is byte-identical for every worker count — assignments in query
// order, exactly as if Assign had been called serially, non-canonical
// queries included.
func (m *Model) AssignBatch(ts []dataset.Transaction, workers int) []int {
	return m.lb.runEach(len(ts), func(i int) dataset.Transaction { return canonical(ts[i]) }, workers,
		func() *labelScratch { return m.scratch.Get().(*labelScratch) },
		func(sc *labelScratch) { m.scratch.Put(sc) })
}

// AssignDataset assigns every transaction of a dataset that was read
// under its own vocabulary: RemapDataset followed by AssignBatch.
func (m *Model) AssignDataset(d *dataset.Dataset, workers int) ([]int, error) {
	mapped, err := m.RemapDataset(d)
	if err != nil {
		return nil, err
	}
	return m.AssignBatch(mapped, workers), nil
}

// RemapDataset translates a dataset's transactions by item name into the
// model's frozen item id space, ready for Assign/AssignBatch — the
// once-per-ingest step of a serving loop over data read under its own
// vocabulary. Item names the model has never seen stay in the query
// (they count toward |t|, exactly as an unseen item would in-process)
// but can match no labeled point. Requires a model frozen with
// FreezeDataset (or loaded from one); models frozen from raw ids carry
// no vocabulary to translate through.
func (m *Model) RemapDataset(d *dataset.Dataset) ([]dataset.Transaction, error) {
	if m.items == nil {
		return nil, fmt.Errorf("core: model was frozen without a vocabulary; freeze with FreezeDataset to enable vocabulary translation")
	}
	byName := make(map[string]dataset.Item, len(m.items))
	for id, name := range m.items {
		byName[name] = dataset.Item(id)
	}
	// Unknown names get fresh ids past the frozen vocabulary — distinct
	// per name, outside every posting list — so |t| and all intersection
	// sizes match what an in-process labeling of the same records would
	// see.
	unknown := map[string]dataset.Item{}
	next := dataset.Item(len(m.items))
	mapped := make([]dataset.Transaction, len(d.Trans))
	items := make([]dataset.Item, 0, 64)
	for i, t := range d.Trans {
		items = items[:0]
		for _, it := range t {
			name := d.Vocab.Name(it)
			id, ok := byName[name]
			if !ok {
				id, ok = unknown[name]
				if !ok {
					id = next
					next++
					unknown[name] = id
				}
			}
			items = append(items, id)
		}
		mapped[i] = dataset.NewTransaction(items...)
	}
	return mapped, nil
}
