package core

import (
	"fmt"
	"math"

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
	// earlier if no cross-cluster links remain. A merge joins only
	// clusters that share a link, so it never joins two connected
	// components of the link graph: when the clustered points' link graph
	// has K or more components, the run ends at exactly those components
	// (weeding aside), and Stats.StoppedEarly says when they are more
	// than K.
	K int
	// F maps θ to the exponent f(θ); nil selects MarketBasketF.
	F FTheta
	// Goodness selects the merge score. The zero value, GoodnessROCK, is
	// the paper's measure, evaluated from a per-run table of s^(1+2f)
	// over cluster sizes; GoodnessLinkCount and GoodnessLinksPerPair are
	// the ablations experiment A1 compares it with.
	Goodness Goodness
	// Measure is the similarity, one of the four measures the
	// similarity package counts from item postings; the zero value is
	// Jaccard, the paper's measure.
	Measure similarity.Measure
	// IncludeSelf makes every point its own neighbor, as some ROCK
	// descriptions assume. Default false (matches pyclustering/cba).
	IncludeSelf bool

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
	// WeedMaxSize is the largest cluster size weeded; 0 selects 2.
	WeedMaxSize int

	// LabelFraction, in [0,1], is the fraction of each cluster sampled
	// into L_i for the labeling phase; 0 selects 0.25.
	LabelFraction float64
	// MaxLabelPoints caps |L_i| per cluster; 0 selects 50.
	MaxLabelPoints int

	// Workers bounds parallelism in the neighbor, link, and labeling
	// phases; 0 = GOMAXPROCS, and a negative value is rejected. Results
	// are byte-identical for every worker count. Labeling shards only
	// runs of 1024 or more candidates; below that the goroutine handoff
	// costs more than it saves. Both the neighbor and the labeling phase
	// query a similarity.Index, which is exact for every Measure and θ.
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

	// labelSerialBelow overrides the labeling phase's serial crossover: 0
	// picks labelSerialCutoff, negative always shards. Unexported, like
	// Model.batchSerialBelow: the oracle tests force the sharded path
	// below the crossover.
	labelSerialBelow int
	// forceLinkTable makes the merge phase build the link table and run
	// the arena even where the link graph's components are its result.
	// Unexported: the pipeline oracle compares the two paths.
	forceLinkTable bool
}

// withDefaults returns a copy with all optional fields populated.
func (c Config) withDefaults() Config {
	if c.F == nil {
		c.F = MarketBasketF
	}
	if c.WeedAt > 0 && c.WeedMaxSize == 0 {
		c.WeedMaxSize = 2
	}
	if c.LabelFraction == 0 {
		c.LabelFraction = 0.25
	}
	if c.MaxLabelPoints == 0 {
		c.MaxLabelPoints = 50
	}
	return c
}

// Validate reports whether the configuration is usable. Each float field
// is checked for NaN explicitly, because a NaN fails no range
// comparison, and f(θ) must be finite.
func (c Config) Validate() error {
	if err := checkModelParams(c.Theta, c.withDefaults().fval(), c.Measure); err != nil {
		return err
	}
	if c.K < 1 {
		return fmt.Errorf("core: k = %d, need at least 1", c.K)
	}
	if c.SampleSize < 0 {
		return fmt.Errorf("core: negative sample size %d", c.SampleSize)
	}
	if math.IsNaN(c.WeedAt) || c.WeedAt < 0 || c.WeedAt > 1 {
		return fmt.Errorf("core: weed-at fraction %g outside [0,1]", c.WeedAt)
	}
	if c.WeedMaxSize < 0 {
		return fmt.Errorf("core: negative weed max size %d", c.WeedMaxSize)
	}
	if math.IsNaN(c.LabelFraction) || c.LabelFraction < 0 || c.LabelFraction > 1 {
		return fmt.Errorf("core: label fraction %g outside [0,1]", c.LabelFraction)
	}
	if c.MaxLabelPoints < 0 {
		return fmt.Errorf("core: negative max label points %d", c.MaxLabelPoints)
	}
	if c.MinNeighbors < 0 {
		return fmt.Errorf("core: negative min-neighbors %d", c.MinNeighbors)
	}
	if c.Goodness > GoodnessLinksPerPair {
		return fmt.Errorf("core: unknown goodness %d", c.Goodness)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative workers %d", c.Workers)
	}
	return nil
}

// checkModelParams reports whether θ lies in [0,1], the exponent f is
// finite and m names a measure: the parameters a model freezes.
// Config.Validate and FreezeSets share it.
func checkModelParams(theta, f float64, m similarity.Measure) error {
	if math.IsNaN(theta) || theta < 0 || theta > 1 {
		return fmt.Errorf("core: theta %g outside [0,1]", theta)
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("core: exponent f %g is not finite", f)
	}
	if m > similarity.Overlap {
		return fmt.Errorf("core: unknown measure %d", m)
	}
	return nil
}

// fval computes the exponent f(θ) for the configuration.
func (c Config) fval() float64 { return c.F(c.Theta) }
