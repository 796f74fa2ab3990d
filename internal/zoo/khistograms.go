package zoo

import (
	"math/rand"
	"sort"

	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/dataset"
)

// KHistogramsEngine implements k-histograms (He, Xu, Deng; the
// histogram-center refinement of Huang's k-modes): cluster centers are
// per-attribute value histograms rather than single modes, and the
// distance from a record to a center is Σ_a (1 − f_a(r[a])), where f_a
// is the value's relative frequency in the cluster. Keeping the whole
// value distribution instead of collapsing it to the mode removes
// k-modes' mode-tie instability and uses strictly more information per
// iteration.
//
// The iteration is batch (Lloyd-style): assign every record to the
// nearest histogram (ties toward the lower cluster index), rebuild the
// histograms, repeat until assignments fix or Config.MaxIter. Centers
// initialize from Config.K distinct records drawn in seeded random
// order; duplicated records never seed two clusters, so degenerate
// inputs start with fewer centers instead of empty ones. Empty clusters
// keep their previous histogram, mirroring the k-modes baseline.
type KHistogramsEngine struct{}

// Name implements Engine.
func (*KHistogramsEngine) Name() string { return "k-histograms" }

// Claims implements Engine: seeded initialization, single-threaded.
func (*KHistogramsEngine) Claims() Claims {
	return Claims{SeedInvariant: false, WorkerInvariant: true, UsesK: true}
}

// histCenter is one cluster's per-attribute value histogram.
type histCenter struct {
	counts []map[string]int
	size   int
}

// distance is Σ_a (1 − count_a(r[a])/size): 0 for a record every member
// matches everywhere, width for a record the cluster has never seen.
func (h *histCenter) distance(rec dataset.Record, width int) float64 {
	if h.size == 0 {
		return float64(width) + 1 // empty centers attract nothing
	}
	d := 0.0
	for a := 0; a < width; a++ {
		d += 1 - float64(h.counts[a][recVal(rec, a)])/float64(h.size)
	}
	return d
}

func newHistCenter(width int) *histCenter {
	h := &histCenter{counts: make([]map[string]int, width)}
	for a := range h.counts {
		h.counts[a] = map[string]int{}
	}
	return h
}

func (h *histCenter) add(rec dataset.Record, width int) {
	for a := 0; a < width; a++ {
		h.counts[a][recVal(rec, a)]++
	}
	h.size++
}

// Fit implements Engine.
func (*KHistogramsEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	records, width := baseline.RecordsOf(d), len(d.Attrs)
	n := len(records)
	k, err := clampK(cfg.K, n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{Assign: []int{}}, nil
	}

	// Seed centers with k distinct records in seeded random order.
	rng := rand.New(rand.NewSource(cfg.Seed))
	var picks []int
	seen := map[string]bool{}
	for _, p := range rng.Perm(n) {
		key := recKey(records[p])
		if !seen[key] {
			seen[key] = true
			picks = append(picks, p)
			if len(picks) == k {
				break
			}
		}
	}
	sort.Ints(picks)
	k = len(picks)
	centers := make([]*histCenter, k)
	for c, p := range picks {
		centers[c] = newHistCenter(width)
		centers[c].add(records[p], width)
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	iters := 0
	for ; iters < cfg.MaxIter; iters++ {
		changed := false
		for p, rec := range records {
			best, bestD := 0, centers[0].distance(rec, width)
			for c := 1; c < k; c++ {
				if dd := centers[c].distance(rec, width); dd < bestD {
					best, bestD = c, dd
				}
			}
			if assign[p] != best {
				assign[p] = best
				changed = true
			}
		}
		if !changed {
			break
		}
		// Rebuild histograms; empty clusters keep their previous one.
		next := make([]*histCenter, k)
		for c := range next {
			next[c] = newHistCenter(width)
		}
		for p, rec := range records {
			next[assign[p]].add(rec, width)
		}
		for c := range next {
			if next[c].size == 0 {
				next[c] = centers[c]
			}
		}
		centers = next
	}

	cost := 0.0
	for p, rec := range records {
		cost += centers[assign[p]].distance(rec, width)
	}
	res := canonicalize(assign)
	res.Stats = Stats{Iters: iters, Cost: cost}
	return res, nil
}

// recKey builds a collision-free map key for a record (values cannot
// contain the \x00 separator, which never survives the tokenizers).
func recKey(rec dataset.Record) string {
	key := ""
	for _, v := range rec {
		key += v + "\x00"
	}
	return key
}
