package similarity

import (
	"runtime"
	"slices"
	"sort"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
)

// Neighbors holds the θ-neighbor lists of a dataset: Lists[i] is the
// sorted slice of indices j with sim(i,j) ≥ θ. Whether i itself appears in
// Lists[i] is controlled by Options.IncludeSelf.
type Neighbors struct {
	Lists [][]int32
	// LSH carries the quality ledger of the run when the lists were
	// produced by the approximate ComputeLSH pipeline; nil for the exact
	// computations.
	LSH *LSHStats
}

// Len reports the number of points.
func (nb *Neighbors) Len() int { return len(nb.Lists) }

// Degree reports the number of neighbors of point i.
func (nb *Neighbors) Degree(i int) int { return len(nb.Lists[i]) }

// Contains reports whether j is a neighbor of i.
func (nb *Neighbors) Contains(i int, j int32) bool {
	l := nb.Lists[i]
	k := sort.Search(len(l), func(k int) bool { return l[k] >= j })
	return k < len(l) && l[k] == j
}

// Stats summarizes neighbor-list sizes: the average and maximum degree,
// written m_a and m_m in the paper's complexity analysis, and the total
// number of directed neighbor entries.
func (nb *Neighbors) Stats() (avg float64, max int, total int) {
	for _, l := range nb.Lists {
		total += len(l)
		if len(l) > max {
			max = len(l)
		}
	}
	if len(nb.Lists) > 0 {
		avg = float64(total) / float64(len(nb.Lists))
	}
	return avg, max, total
}

// Options configure neighbor computation.
type Options struct {
	// Measure is the similarity; nil means Jaccard.
	Measure Measure
	// IncludeSelf adds each point to its own neighbor list (sim(p,p)=1 ≥ θ
	// always holds for the provided measures on non-empty transactions).
	// The default, matching pyclustering and cba, is to exclude self.
	IncludeSelf bool
	// Workers bounds the number of goroutines used; 0 means GOMAXPROCS.
	// Results are identical regardless of worker count.
	Workers int
}

func (o Options) measure() Measure {
	if o.Measure == nil {
		return Jaccard
	}
	return o.Measure
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return defaultWorkers()
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Compute builds neighbor lists by brute force, evaluating the measure on
// all O(n²) pairs. It works with any Measure and any θ. Rows are computed
// in parallel; output is deterministic.
func Compute(ts []dataset.Transaction, theta float64, opts Options) *Neighbors {
	n := len(ts)
	sim := opts.measure()
	nb := &Neighbors{Lists: make([][]int32, n)}
	chunkwork.Rows(n, opts.workers(), 16, func(i int) {
		var l []int32
		for j := 0; j < n; j++ {
			if j == i {
				if opts.IncludeSelf && sim(ts[i], ts[i]) >= theta {
					l = append(l, int32(j))
				}
				continue
			}
			if sim(ts[i], ts[j]) >= theta {
				l = append(l, int32(j))
			}
		}
		nb.Lists[i] = l
	})
	return nb
}

// ComputeIndexed builds the same neighbor lists as Compute by querying an
// Index over ts with every row, so it is exact for every measure and
// every θ. For a built-in measure at θ > 0 the index examines only pairs
// that share an item, at O(1) each through the counted form; a custom
// measure, or θ ≤ 0, evaluates every pair as Compute does.
func ComputeIndexed(ts []dataset.Transaction, theta float64, opts Options) *Neighbors {
	ix := NewIndex(ts, theta, opts.Measure)
	nb := &Neighbors{Lists: make([][]int32, len(ts))}
	chunkwork.Run(len(ts), opts.workers(), 64, func(next func() (int, int, bool)) {
		sc := ix.NewScratch() // per-worker scratch
		var row []int32
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				row = ix.Query(ts[i], sc, row[:0])
				if k := slices.Index(row, int32(i)); k >= 0 && !opts.IncludeSelf {
					row = slices.Delete(row, k, k+1)
				}
				if len(row) > 0 {
					slices.Sort(row)
					nb.Lists[i] = slices.Clone(row)
				}
			}
		}
	})
	return nb
}
