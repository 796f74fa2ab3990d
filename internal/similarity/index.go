package similarity

import (
	"github.com/rockclust/rock/internal/dataset"
)

// Index answers θ-queries over a fixed slice of transactions: Query(t)
// lists every j with sim(t, ts[j]) ≥ θ, exactly, for every measure and
// every θ. It is the one place that decides how to find θ-neighbors:
// the neighbor phase (ComputeIndexed), the LSH recall estimate and the
// labeling phase all query it.
//
// Exactness. Every built-in measure is a pure function of
// (|t ∩ q|, |t|, |q|), and its counted form is the measure's own
// implementation (counted.go), so a postings scan that yields the
// intersection size decides sim ≥ θ bit-identically to the pairwise
// evaluation. A pair the scan never touches has |t ∩ q| = 0, where all
// four built-ins score 0, so skipping it is exact for θ > 0. A custom
// measure may be positive on disjoint transactions, and at θ ≤ 0 every
// pair passes, so those queries evaluate the measure against every
// indexed transaction instead. The choice changes the cost, never the
// answer.
type Index struct {
	ts    []dataset.Transaction
	theta float64
	sim   Measure
	// cm is the measure's counted form when queries scan postings, nil
	// when they run pairwise.
	cm CountedMeasure

	// postings[it] lists, ascending, the ids of the transactions holding
	// item it. It is sized by the largest id, so when ids are sparse
	// relative to the data (or negative) postingsMap holds the same lists
	// instead, keeping the index linear in the data whatever ids a caller
	// or a crafted model file supplies. On the postings scan exactly one
	// of the two is non-nil.
	postings    [][]int32
	postingsMap map[dataset.Item][]int32
}

// NewIndex builds the index over ts for threshold theta and measure m
// (nil selects Jaccard). Queries read ts, which is not copied and must
// not change while the index is in use.
func NewIndex(ts []dataset.Transaction, theta float64, m Measure) *Index {
	if m == nil {
		m = Jaccard
	}
	ix := &Index{ts: ts, theta: theta, sim: m}
	if theta <= 0 {
		return ix
	}
	if ix.cm = Counted(m); ix.cm == nil {
		return ix
	}
	nitems, occurrences, negative := 0, 0, false
	for _, t := range ts {
		occurrences += len(t)
		for _, it := range t {
			if it < 0 {
				negative = true
			} else if int(it) >= nitems {
				nitems = int(it) + 1
			}
		}
	}
	// Vocabulary-interned ids always take the dense array: their id
	// space is within a small factor of the item occurrences it indexes.
	if !negative && nitems <= 4*occurrences+1024 {
		ix.postings = make([][]int32, nitems)
		for j, t := range ts {
			for _, it := range t {
				ix.postings[it] = append(ix.postings[it], int32(j))
			}
		}
		return ix
	}
	ix.postingsMap = make(map[dataset.Item][]int32, occurrences)
	for j, t := range ts {
		for _, it := range t {
			ix.postingsMap[it] = append(ix.postingsMap[it], int32(j))
		}
	}
	return ix
}

// Pairwise reports whether queries evaluate the measure against every
// indexed transaction (a custom measure, or θ ≤ 0) rather than scanning
// item postings.
func (ix *Index) Pairwise() bool { return ix.cm == nil }

// SparsePostings reports whether the postings are keyed by a map because
// the indexed item ids are sparse or negative.
func (ix *Index) SparsePostings() bool { return ix.postingsMap != nil }

// Scratch is the reusable per-goroutine state of Index.Query: an
// intersection counter per indexed transaction and the ids whose counter
// the current query raised. Query leaves it cleared.
type Scratch struct {
	counts  []int32
	touched []int32
}

// NewScratch returns scratch for queries on ix. One Scratch serves one
// goroutine at a time; any number of goroutines may query ix at once,
// each with its own.
func (ix *Index) NewScratch() *Scratch {
	if ix.cm == nil {
		return &Scratch{}
	}
	return &Scratch{counts: make([]int32, len(ix.ts)), touched: make([]int32, 0, 256)}
}

// Query appends to dst the id of every indexed transaction q with
// sim(t, q) ≥ θ and returns the extended slice. The pairwise scan
// appends ids in ascending order, the postings scan in the order it
// first meets them. A query item no indexed transaction holds, unknown
// or negative, matches nothing.
func (ix *Index) Query(t dataset.Transaction, sc *Scratch, dst []int32) []int32 {
	if ix.cm == nil {
		for j, q := range ix.ts {
			if ix.sim(t, q) >= ix.theta {
				dst = append(dst, int32(j))
			}
		}
		return dst
	}
	for _, it := range t {
		var plist []int32
		if ix.postingsMap != nil {
			plist = ix.postingsMap[it]
		} else if it >= 0 && int(it) < len(ix.postings) {
			plist = ix.postings[it]
		}
		for _, j := range plist {
			if sc.counts[j] == 0 {
				sc.touched = append(sc.touched, j)
			}
			sc.counts[j]++
		}
	}
	for _, j := range sc.touched {
		if ix.cm(int(sc.counts[j]), len(t), len(ix.ts[j])) >= ix.theta {
			dst = append(dst, j)
		}
		sc.counts[j] = 0
	}
	sc.touched = sc.touched[:0]
	return dst
}
