package core

import (
	"fmt"

	"github.com/rockclust/rock/internal/similarity"
)

// Config holds every ROCK parameter. The zero value is not directly
// usable — Theta and K are mandatory — but all other fields have sensible
// defaults applied by withDefaults.
type Config struct {
	// Theta is the neighbor threshold: points with similarity ≥ Theta are
	// neighbors. Must lie in [0,1].
	Theta float64
	// K is the target number of clusters. Merging stops at K clusters, or
	// earlier if no cross-cluster links remain.
	K int
	// F maps θ to the exponent f(θ); nil selects MarketBasketF.
	F FTheta
	// Goodness scores candidate merges. nil selects the built-in
	// RockGoodness, evaluated from a per-run table of s^(1+2f) over
	// cluster sizes. A non-nil function — RockGoodness passed explicitly
	// included — is called once per candidate: the same output, slower.
	Goodness GoodnessFunc
	// Measure is the similarity; nil selects Jaccard. The built-in
	// measures find θ-neighbors through an inverted item index. A custom
	// Measure, which may be positive on disjoint transactions, runs
	// pairwise in both the neighbor and the labeling phase: O(n²) over
	// the sample, and O(candidates × Σ|L_i|) labeling.
	Measure similarity.Measure
	// IncludeSelf makes every point its own neighbor, as some ROCK
	// descriptions assume. Default false (matches pyclustering/cba).
	IncludeSelf bool
	// LSHNeighbors switches the neighbor phase to MinHash banded LSH
	// with exact verification of candidates: no false-positive
	// neighbors, tunably-rare false negatives, near-linear candidate
	// generation — for samples too large for the exact index. LSHHashes
	// and LSHBands tune the S-curve (defaults 96/24, threshold ≈ 0.45);
	// the run stays deterministic under Seed.
	LSHNeighbors bool
	LSHHashes    int
	LSHBands     int

	// SampleSize, when positive and smaller than the dataset, clusters a
	// uniform random sample of that size and assigns the remaining points
	// in the labeling phase, exactly as the paper prescribes for large
	// datasets. Zero clusters every point.
	SampleSize int
	// Seed drives all randomized steps (sampling, labeling subsets).
	Seed int64

	// MinNeighbors prunes points with fewer than this many neighbors
	// before links are computed; the paper observes that outliers have
	// few or no neighbors. Zero keeps everything.
	MinNeighbors int
	// WeedAt, in (0,1], enables the paper's second outlier device: when
	// the number of active clusters first falls to WeedAt × (initial
	// clusters), clusters of size ≤ WeedMaxSize are discarded as
	// outliers. Zero disables weeding.
	WeedAt float64
	// WeedMaxSize is the largest cluster size weeded; default 2.
	WeedMaxSize int

	// LabelFraction is the fraction of each cluster sampled into L_i for
	// the labeling phase; default 0.25.
	LabelFraction float64
	// MaxLabelPoints caps |L_i| per cluster; default 50.
	MaxLabelPoints int

	// Workers bounds parallelism in the neighbor, link, and labeling
	// phases; 0 = GOMAXPROCS. Results are byte-identical for every worker
	// count. Labeling shards only runs of 1024 or more candidates; below
	// that the goroutine handoff costs more than it saves. Both the
	// neighbor and the labeling phase query a similarity.Index, which is
	// exact for every Measure: item postings for the built-in measures,
	// pairwise evaluation for custom Measure funcs.
	Workers int

	// TraceMerges records every merge step into Result.MergeTrace,
	// turning the run into a dendrogram that CutTrace can cut at any
	// cluster count without re-running the pipeline.
	TraceMerges bool
	// LabelOutliers includes sample points pruned or weeded as outliers
	// in the labeling phase, giving them a second chance to join a
	// cluster through the L_i scoring instead of being discarded. The
	// paper discards them; this is an extension.
	LabelOutliers bool

	// labelReference forces the labeling phase onto the serial pairwise
	// reference loop (labelPoint). Unexported: reachable only from this
	// package's oracle tests, which prove the indexed/parallel labeler
	// byte-identical to it through the full pipeline.
	labelReference bool
	// labelSerialBelow overrides the labeling phase's serial crossover: 0
	// picks labelSerialCutoff, negative always shards. Unexported, like
	// Model.batchSerialBelow: the oracle tests force the sharded path
	// below the crossover.
	labelSerialBelow int
}

// withDefaults returns a copy with all optional fields populated.
func (c Config) withDefaults() Config {
	if c.F == nil {
		c.F = MarketBasketF
	}
	if c.Measure == nil {
		c.Measure = similarity.Jaccard
	}
	if c.WeedAt > 0 && c.WeedMaxSize == 0 {
		c.WeedMaxSize = 2
	}
	if c.LabelFraction <= 0 || c.LabelFraction > 1 {
		c.LabelFraction = 0.25
	}
	if c.MaxLabelPoints <= 0 {
		c.MaxLabelPoints = 50
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Theta < 0 || c.Theta > 1 {
		return fmt.Errorf("core: theta %g outside [0,1]", c.Theta)
	}
	if c.K < 1 {
		return fmt.Errorf("core: k = %d, need at least 1", c.K)
	}
	if c.SampleSize < 0 {
		return fmt.Errorf("core: negative sample size %d", c.SampleSize)
	}
	if c.WeedAt < 0 || c.WeedAt > 1 {
		return fmt.Errorf("core: weed-at fraction %g outside [0,1]", c.WeedAt)
	}
	if c.MinNeighbors < 0 {
		return fmt.Errorf("core: negative min-neighbors %d", c.MinNeighbors)
	}
	return nil
}

// fval computes the exponent f(θ) for the configuration.
func (c Config) fval() float64 { return c.F(c.Theta) }
