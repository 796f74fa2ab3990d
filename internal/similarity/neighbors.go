package similarity

import (
	"runtime"
	"slices"
	"sync"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
)

// Neighbors holds the θ-neighbor lists of a dataset: Lists[i] is the
// ascending slice of indices j with sim(i,j) ≥ θ. Whether i itself
// appears in Lists[i] is controlled by Options.IncludeSelf. Every measure
// is symmetric, so the lists are too: j ∈ Lists[i] exactly when
// i ∈ Lists[j]. The link layer (linkage.Build and CountPairs) relies on
// both properties.
type Neighbors struct {
	Lists [][]int32
}

// Len reports the number of points.
func (nb *Neighbors) Len() int { return len(nb.Lists) }

// Degree reports the number of neighbors of point i.
func (nb *Neighbors) Degree(i int) int { return len(nb.Lists[i]) }

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
	// Measure is the similarity; the zero value is Jaccard.
	Measure Measure
	// IncludeSelf adds each point to its own neighbor list (sim(p,p)=1 ≥ θ
	// always holds for the provided measures on non-empty transactions).
	// The default, matching pyclustering and cba, is to exclude self.
	IncludeSelf bool
	// Workers bounds the number of goroutines used; 0 means GOMAXPROCS.
	// Results are identical regardless of worker count.
	Workers int
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return defaultWorkers()
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Compute builds neighbor lists by brute force, evaluating the measure on
// all O(n²) pairs, at any θ. Rows are computed in parallel; output is
// deterministic.
func Compute(ts []dataset.Transaction, theta float64, opts Options) *Neighbors {
	n := len(ts)
	sim := opts.Measure.Sim
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
// Index over ts, so it is exact for every measure and every θ. Row i
// queries only the ids below i: every measure is symmetric, so a serial
// pass mirrors each lower half into the rows above it.
func ComputeIndexed(ts []dataset.Transaction, theta float64, opts Options) *Neighbors {
	nb, _ := computeIndexed(ts, theta, opts)
	return nb
}

// computeIndexed is ComputeIndexed returning the index's work as well.
func computeIndexed(ts []dataset.Transaction, theta float64, opts Options) (*Neighbors, queryWork) {
	const chunk = 64
	n := len(ts)
	ix := NewIndex(ts, theta, opts.Measure)
	nb := &Neighbors{Lists: make([][]int32, n)}

	// lower[c] holds the lower halves of chunk c's rows back to back,
	// each sorted; lowLen[i] is row i's length.
	lower := make([][]int32, (n+chunk-1)/chunk)
	lowLen := make([]int32, n)
	var work queryWork
	var mu sync.Mutex
	chunkwork.Run(n, opts.workers(), chunk, func(next func() (int, int, bool)) {
		sc := ix.NewScratch() // per-worker scratch
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			var cols []int32
			for i := lo; i < hi; i++ {
				start := len(cols)
				cols = ix.query(ts[i], sc, cols, int32(i))
				slices.Sort(cols[start:])
				lowLen[i] = int32(len(cols) - start)
			}
			lower[lo/chunk] = cols
		}
		mu.Lock()
		work.add(sc.work)
		mu.Unlock()
	})

	// Row i is lower(i), then i itself when it is its own θ-neighbor,
	// then upper(i) = {j > i : i ∈ lower(j)}. Rows are filled in
	// ascending i, so each upper part arrives ascending.
	self := func(i int) bool {
		l := len(ts[i])
		return opts.IncludeSelf && ix.cm(l, l, l) >= theta
	}
	at := make([]int, n+1) // row starts
	for i := range n {
		at[i+1] = int(lowLen[i])
		if self(i) {
			at[i+1]++
		}
	}
	for _, cols := range lower {
		for _, k := range cols {
			at[k+1]++
		}
	}
	for i := range n {
		at[i+1] += at[i]
	}
	arena := make([]int32, at[n])
	fill := slices.Clone(at[:n])
	for c, cols := range lower {
		for i := c * chunk; i < min(n, (c+1)*chunk); i++ {
			low := cols[:lowLen[i]]
			cols = cols[lowLen[i]:]
			fill[i] += copy(arena[fill[i]:], low)
			if self(i) {
				arena[fill[i]] = int32(i)
				fill[i]++
			}
			for _, k := range low {
				arena[fill[k]] = int32(i)
				fill[k]++
			}
		}
		lower[c] = nil
	}
	for i := range n {
		if at[i+1] > at[i] {
			nb.Lists[i] = arena[at[i]:at[i+1]:at[i+1]]
		}
	}
	return nb, work
}
