package zoo

import (
	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/dataset"
)

// Squeezer is the single-pass streaming clusterer of He, Xu and Deng
// ("Squeezer: an efficient algorithm for clustering categorical data",
// J. Comput. Sci. Technol. 2002), maintained incrementally: each
// ingested record either joins the existing cluster with the highest
// support-weighted similarity (when that similarity reaches the
// threshold) or founds a new cluster. Clusters are summarized by
// per-attribute value-count histograms — no record is ever revisited,
// which is what makes the algorithm a natural seed for streaming-side
// engine alternatives.
//
// The similarity of a record r to a cluster C is the mean per-attribute
// support (1/width)·Σ_a count_C(r[a])/|C|, normalized into [0,1] so the
// threshold is scale-free in the attribute count. Ingest order is the
// only source of nondeterminism the algorithm has; for a fixed stream
// the result is fully deterministic and seed-free.
type Squeezer struct {
	width     int
	threshold float64
	counts    [][]map[string]int // per cluster, per attribute
	sizes     []int
	assign    []int
}

// NewSqueezer creates an empty clusterer over records of the given
// attribute width. threshold is clamped into [0,1].
func NewSqueezer(width int, threshold float64) *Squeezer {
	if width < 0 {
		width = 0
	}
	if threshold < 0 {
		threshold = 0
	}
	if threshold > 1 {
		threshold = 1
	}
	return &Squeezer{width: width, threshold: threshold}
}

// Len reports the number of records ingested so far.
func (s *Squeezer) Len() int { return len(s.assign) }

// K reports the number of clusters formed so far.
func (s *Squeezer) K() int { return len(s.sizes) }

// similarity is the mean per-attribute support of rec in cluster c.
// Zero-width records are all identical, so their similarity is 1.
func (s *Squeezer) similarity(c int, rec dataset.Record) float64 {
	if s.width == 0 {
		return 1
	}
	sum := 0.0
	for a := 0; a < s.width; a++ {
		sum += float64(s.counts[c][a][recVal(rec, a)])
	}
	return sum / (float64(s.width) * float64(s.sizes[c]))
}

// Ingest adds one record and returns the cluster id it was placed in
// (existing when the best similarity reaches the threshold — ties break
// toward the lower cluster id — a fresh id otherwise). Attributes
// beyond the configured width are ignored; short records read as empty
// values, matching the record padding of DecodeRecord.
func (s *Squeezer) Ingest(rec dataset.Record) int {
	best, bestSim := -1, -1.0
	for c := range s.sizes {
		if sim := s.similarity(c, rec); sim > bestSim {
			best, bestSim = c, sim
		}
	}
	if best < 0 || bestSim < s.threshold {
		best = len(s.sizes)
		cnt := make([]map[string]int, s.width)
		for a := range cnt {
			cnt[a] = map[string]int{}
		}
		s.counts = append(s.counts, cnt)
		s.sizes = append(s.sizes, 0)
	}
	for a := 0; a < s.width; a++ {
		s.counts[best][a][recVal(rec, a)]++
	}
	s.sizes[best]++
	s.assign = append(s.assign, best)
	return best
}

// Result snapshots the current clustering in the canonical zoo form.
// Cluster ids are already dense and ordered by first member (clusters
// are founded in stream order), so this is a direct re-grouping.
func (s *Squeezer) Result() *Result {
	res := canonicalize(s.assign)
	res.Stats = Stats{Iters: 1}
	return res
}

// SqueezerEngine adapts the streaming Squeezer to the Engine interface:
// one pass over the records in input order with Config.Threshold as the
// admission bar. Config.K is ignored — the threshold determines the
// cluster count, exactly as in the paper.
type SqueezerEngine struct{}

// Name implements Engine.
func (*SqueezerEngine) Name() string { return "squeezer" }

// Claims implements Engine: the single pass uses no randomness and no
// workers, so the partition is seed- and worker-invariant.
func (*SqueezerEngine) Claims() Claims {
	return Claims{SeedInvariant: true, WorkerInvariant: true, UsesK: false}
}

// Fit implements Engine.
func (*SqueezerEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if _, err := clampK(cfg.K, d.Len()); err != nil {
		return nil, err
	}
	records, width := baseline.RecordsOf(d), len(d.Attrs)
	s := NewSqueezer(width, cfg.Threshold)
	for _, rec := range records {
		s.Ingest(rec)
	}
	return s.Result(), nil
}
