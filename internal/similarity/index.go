package similarity

import (
	"cmp"
	"slices"

	"github.com/rockclust/rock/internal/dataset"
)

// Index answers θ-queries over a fixed slice of transactions: Query(t)
// lists every j with m.Sim(t, ts[j]) ≥ θ, exactly, for every measure m
// and every θ. It is the one place that decides how to find θ-neighbors:
// the neighbor phase (ComputeIndexed), the labeling phase and
// Model.Assign all query it.
//
// Exactness. Every measure is a pure function of (|t ∩ q|, |t|, |q|),
// and Measure.Sim is its counted form (counted.go) applied to the
// intersection size, so an index that yields the intersection size
// decides sim ≥ θ bit-identically to the pairwise evaluation. A pair
// that shares no item scores 0 under all four measures, so skipping it
// is exact for θ > 0. Every measure's values lie in [0, 1], so at θ ≤ 0
// every pair passes: the index then builds no postings and answers each
// query with every indexed id, reading nothing.
//
// A query at θ > 0 takes one of two paths, chosen per query from
// posting lengths the index holds:
//
//   - the full count reads every posting of every query item into an
//     intersection counter per indexed transaction;
//   - the prefix probe reads only the postings of the query's rarest
//     items, only where the item lies in the indexed transaction's own
//     prefix, and counts each candidate met there exactly.
//
// Items are ranked by ascending frequency over the indexed
// transactions, ties to the smaller id; a query item no indexed
// transaction holds ranks before all of them. Let cm be the counted
// form. α_x(l) is the least o in [1, l] with cm(o, o, l) ≥ θ, and an
// indexed transaction of length l keeps its first l − α_x(l) + 1 items
// in rank order as its prefix. α_q(l) is the least o in [1, l] with
// cm(o, l, o) ≥ θ, and a length-l query probes its first l − α_q(l) + 1
// items. Where no o passes, α is l + 1 and the prefix is empty.
//
// Why the probe finds every answer. Each counted form is
// non-decreasing in the overlap and non-increasing in each length, the
// other arguments fixed, in float64 too: its operands are small exact
// integers, and IEEE division and square root are monotone. A pair
// (q, x) that passes has overlap o ≤ min(|q|, |x|), so
// cm(o, o, |x|) ≥ cm(o, |q|, |x|) ≥ θ gives o ≥ α_x(|x|), and likewise
// o ≥ α_q(|q|). The shared item that ranks first has at most |x| − o
// items of x after it, so it lies within x's prefix, and within q's by
// the same count: the probe meets x. A candidate whose lengths admit no
// passing overlap, cm(min(|q|, |x|), |q|, |x|) < θ, is skipped uncounted.
// Overlap's α is 1, so its prefixes are whole transactions. Both paths
// compare a count with its threshold, the least overlap the counted
// form passes for the two lengths: by the same monotonicity, a count
// passes exactly when it reaches it.
//
// The choice. Let full be the postings the query's items hold and pref
// the prefix postings they hold, and L the longest indexed transaction.
// A probe reads at most pref postings and counts at most pref
// candidates at L reads each, so its worst case is pref·(1+L) entries.
// The index probes when that is below probeBudget = 4 full counts. The
// worst case is rarely met: prefix postings repeat candidates, and the
// length filter skips others. The 4 is measured. On hub-heavy baskets
// at θ=0.3 and n=10⁵, a budget of 1 left 84% of queries on the full
// count, reading 851M entries; 4 reads 127.5M. On 1,000 dense
// planted-label records, where a probe saves little, 4 moves 2 queries
// to the probe and 5 moves 29. The choice changes the cost, never the
// answer.
type Index struct {
	ts    []dataset.Transaction
	theta float64
	cm    CountedMeasure // the measure's counted form

	// rank[it] is item it's rank, -1 when no indexed transaction holds
	// it. The array is sized by the largest id, so when ids are sparse
	// relative to the data (or negative) rankMap holds the held items'
	// ranks instead, keeping the index linear in the data whatever ids a
	// caller or a crafted model file supplies. At θ > 0 exactly one of
	// the two is non-nil.
	rank    []int32
	rankMap map[dataset.Item]int32

	// post[seg[2r]:seg[2r+2]] lists the transactions holding the item of
	// rank r: first, ascending, those whose prefix holds it (up to
	// seg[2r+1]), then, ascending, the rest.
	seg  []int
	post []int32

	// xr[xoff[j]:xoff[j+1]] are the ranks of ts[j]'s items, ascending.
	xoff   []int
	xr     []int32
	maxLen int // L, the longest indexed transaction
}

// indexAlpha is α_x(l): the least overlap o in [1, l] with
// cm(o, o, l) ≥ θ, or l+1 when none passes. An indexed transaction of
// length l keeps its first l − indexAlpha(l) + 1 items as its prefix.
func indexAlpha(cm CountedMeasure, theta float64, l int) int {
	for o := 1; o <= l; o++ {
		if cm(o, o, l) >= theta {
			return o
		}
	}
	return l + 1
}

// queryAlpha is α_q(l): the least overlap o in [1, l] with
// cm(o, l, o) ≥ θ, or l+1 when none passes. A length-l query probes its
// first l − queryAlpha(l) + 1 items.
func queryAlpha(cm CountedMeasure, theta float64, l int) int {
	for o := 1; o <= l; o++ {
		if cm(o, l, o) >= theta {
			return o
		}
	}
	return l + 1
}

// NewIndex builds the index over ts for threshold theta and measure m.
// Queries read ts, which is not copied and must not change while the
// index is in use.
func NewIndex(ts []dataset.Transaction, theta float64, m Measure) *Index {
	ix := &Index{ts: ts, theta: theta, cm: m.Counted()}
	if theta <= 0 {
		return ix
	}
	nitems, occurrences, negative := 0, 0, false
	for _, t := range ts {
		occurrences += len(t)
		ix.maxLen = max(ix.maxLen, len(t))
		for _, it := range t {
			if it < 0 {
				negative = true
			} else if int(it) >= nitems {
				nitems = int(it) + 1
			}
		}
	}

	// Rank the held items by (frequency, id). Vocabulary-interned ids
	// always take the dense array: their id space is within a small
	// factor of the item occurrences it indexes.
	var items []dataset.Item
	var freq func(dataset.Item) int32
	if !negative && nitems <= 4*occurrences+1024 {
		ix.rank = make([]int32, nitems) // frequencies until ranked
		for _, t := range ts {
			for _, it := range t {
				ix.rank[it]++
			}
		}
		for it, f := range ix.rank {
			if f > 0 {
				items = append(items, dataset.Item(it))
			}
		}
		freq = func(it dataset.Item) int32 { return ix.rank[it] }
	} else {
		ix.rankMap = make(map[dataset.Item]int32, occurrences)
		for _, t := range ts {
			for _, it := range t {
				ix.rankMap[it]++
			}
		}
		for it := range ix.rankMap {
			items = append(items, it)
		}
		freq = func(it dataset.Item) int32 { return ix.rankMap[it] }
	}
	slices.SortFunc(items, func(a, b dataset.Item) int {
		return cmp.Or(cmp.Compare(freq(a), freq(b)), cmp.Compare(a, b))
	})
	// seg[2r+2] counts rank r's postings and seg[2r+1] its prefix
	// postings until the offsets are summed below.
	ix.seg = make([]int, 2*len(items)+1)
	for r, it := range items {
		ix.seg[2*r+2] = int(freq(it))
	}
	if ix.rank != nil {
		for it := range ix.rank {
			ix.rank[it] = -1
		}
		for r, it := range items {
			ix.rank[it] = int32(r)
		}
	} else {
		for r, it := range items {
			ix.rankMap[it] = int32(r)
		}
	}

	// Each transaction's ranks, ascending, and its prefix postings.
	prefix := make([]int, ix.maxLen+1) // prefix length by transaction length
	for l := range prefix {
		prefix[l] = l - indexAlpha(ix.cm, theta, l) + 1
	}
	ix.xoff = make([]int, len(ts)+1)
	ix.xr = make([]int32, occurrences)
	for j, t := range ts {
		x := ix.xr[ix.xoff[j] : ix.xoff[j]+len(t)]
		ix.xoff[j+1] = ix.xoff[j] + len(t)
		for k, it := range t {
			x[k] = ix.rankOf(it)
		}
		slices.Sort(x)
		for _, r := range x[:prefix[len(x)]] {
			ix.seg[2*r+1]++
		}
	}

	// Offsets, then the postings. fill[r] is rank r's next prefix slot
	// and seg[2r+1] its next slot among the rest, until it is reset.
	fill := make([]int, len(items))
	at := 0
	for r := range items {
		n, np := ix.seg[2*r+2], ix.seg[2*r+1]
		ix.seg[2*r], fill[r], ix.seg[2*r+1] = at, at, at+np
		at += n
	}
	ix.seg[2*len(items)] = at
	ix.post = make([]int32, occurrences)
	for j := range ts {
		x := ix.xr[ix.xoff[j]:ix.xoff[j+1]]
		p := prefix[len(x)]
		for _, r := range x[:p] {
			ix.post[fill[r]] = int32(j)
			fill[r]++
		}
		for _, r := range x[p:] {
			ix.post[ix.seg[2*r+1]] = int32(j)
			ix.seg[2*r+1]++
		}
	}
	for r := range items {
		ix.seg[2*r+1] = fill[r]
	}
	return ix
}

// rankOf returns item it's rank, -1 when no indexed transaction holds it.
func (ix *Index) rankOf(it dataset.Item) int32 {
	if ix.rankMap != nil {
		if r, ok := ix.rankMap[it]; ok {
			return r
		}
		return -1
	}
	if it >= 0 && int(it) < len(ix.rank) {
		return ix.rank[it]
	}
	return -1
}

// SparsePostings reports whether item ranks are keyed by a map because
// the indexed item ids are sparse or negative.
func (ix *Index) SparsePostings() bool { return ix.rankMap != nil }

// Scratch is the reusable per-goroutine state of Index.Query: a counter
// per indexed transaction with the ids whose counter the current query
// raised, the query's item ranks, and a mark per item rank, which Query
// leaves cleared; the pass thresholds of recent query lengths; and the
// work of every query it served.
type Scratch struct {
	counts  []int32
	touched []int32
	ranks   []int32
	mark    []uint8
	// need[lx] is the least count that passes for a query of length
	// needLq[lx]−1 and an indexed transaction of length lx.
	need, needLq []int32
	work         queryWork
}

// NewScratch returns scratch for queries on ix. One Scratch serves one
// goroutine at a time; any number of goroutines may query ix at once,
// each with its own.
func (ix *Index) NewScratch() *Scratch {
	return &Scratch{
		counts:  make([]int32, len(ix.ts)),
		touched: make([]int32, 0, 256),
		mark:    make([]uint8, len(ix.seg)/2),
		need:    make([]int32, ix.maxLen+1),
		needLq:  make([]int32, ix.maxLen+1),
	}
}

// threshold returns the least overlap o with cm(o, lq, lx) ≥ θ, or
// min(lq, lx)+1 when none passes. The counted form is non-decreasing in
// the overlap, so a count c passes exactly when c ≥ threshold; sc keeps
// it per lx for the last lq it was asked with.
func (ix *Index) threshold(sc *Scratch, lq, lx int) int32 {
	if sc.needLq[lx] == int32(lq)+1 {
		return sc.need[lx]
	}
	o, m := 1, min(lq, lx)
	for o <= m && ix.cm(o, lq, lx) < ix.theta {
		o++
	}
	sc.need[lx], sc.needLq[lx] = int32(o), int32(lq)+1
	return int32(o)
}

// Query appends to dst the id of every indexed transaction q with
// sim(t, q) ≥ θ and returns the extended slice. t must be canonical,
// strictly ascending; its ids may be negative. At θ ≤ 0 the ids come in
// ascending order, and at θ > 0 in the order the postings paths first
// meet them. A query item no indexed transaction holds, unknown or
// negative, matches nothing but counts in |t|.
func (ix *Index) Query(t dataset.Transaction, sc *Scratch, dst []int32) []int32 {
	return ix.query(t, sc, dst, int32(len(ix.ts)))
}

// probeBudget bounds a prefix probe's worst case, in full counts: a
// query probes when pref·(1+L) < probeBudget·full (see Index). It is
// not a knob; TestIndexWorkCounts fails at 1, 3, 5 and 8.
const probeBudget = 4

// queryWork counts the work of postings queries: queries on each path,
// posting entries read, and candidates the counted form decided. Every
// count is a function of the index and the queries alone. Each query
// adds its own to its Scratch.
type queryWork struct {
	probes, fulls     int
	reads, candidates int64
}

func (w *queryWork) add(o queryWork) {
	w.probes += o.probes
	w.fulls += o.fulls
	w.reads += o.reads
	w.candidates += o.candidates
}

// query is Query restricted to the indexed ids below below.
func (ix *Index) query(t dataset.Transaction, sc *Scratch, dst []int32, below int32) []int32 {
	if ix.theta <= 0 { // every pair passes
		for j := range below {
			dst = append(dst, j)
		}
		return dst
	}
	ranks := sc.ranks[:0]
	full, pref := 0, 0
	for _, it := range t {
		r := ix.rankOf(it)
		ranks = append(ranks, r)
		if r >= 0 {
			full += ix.seg[2*r+2] - ix.seg[2*r]
			pref += ix.seg[2*r+1] - ix.seg[2*r]
		}
	}
	sc.ranks = ranks
	if pref*(1+ix.maxLen) < probeBudget*full {
		return ix.probe(len(t), sc, dst, below)
	}

	w := &sc.work
	w.fulls++
	cut := int(below) < len(ix.ts)
	for _, r := range ranks {
		if r < 0 {
			continue
		}
		lo, mid, hi := ix.seg[2*r], ix.seg[2*r+1], ix.seg[2*r+2]
		if !cut {
			w.reads += sc.tally(ix.post[lo:hi])
			continue
		}
		w.reads += sc.tally(lowerPart(ix.post[lo:mid], below))
		w.reads += sc.tally(lowerPart(ix.post[mid:hi], below))
	}
	w.candidates += int64(len(sc.touched))
	lq, counts, xoff := len(t), sc.counts, ix.xoff
	need, needLq := sc.need, sc.needLq
	for _, j := range sc.touched {
		lx := xoff[j+1] - xoff[j]
		c := need[lx]
		if needLq[lx] != int32(lq)+1 {
			c = ix.threshold(sc, lq, lx)
		}
		if counts[j] >= c {
			dst = append(dst, j)
		}
		counts[j] = 0
	}
	sc.touched = sc.touched[:0]
	return dst
}

// tally raises the counter of every id in plist and returns its length.
func (sc *Scratch) tally(plist []int32) int64 {
	counts, touched := sc.counts, sc.touched // locals stay in registers
	for _, j := range plist {
		if counts[j] == 0 {
			touched = append(touched, j)
		}
		counts[j]++
	}
	sc.touched = touched
	return int64(len(plist))
}

// lowerPart returns the ids of the ascending list plist that lie below
// below.
func lowerPart(plist []int32, below int32) []int32 {
	k, _ := slices.BinarySearch(plist, below)
	return plist[:k]
}

// probe is the prefix probe over the query whose ranks sc.ranks holds:
// it reads the prefix postings of the query's first lq − α_q(lq) + 1
// items in rank order and counts each candidate it meets by its marked
// ranks, unless the two lengths admit no passing overlap. sc.counts
// marks the candidates already met.
func (ix *Index) probe(lq int, sc *Scratch, dst []int32, below int32) []int32 {
	w := &sc.work
	w.probes++
	p := lq - queryAlpha(ix.cm, ix.theta, lq) + 1
	if p <= 0 {
		return dst
	}
	ranks := sc.ranks
	slices.Sort(ranks)
	for _, r := range ranks {
		if r >= 0 {
			sc.mark[r] = 1
		}
	}
	for _, r := range ranks[:p] {
		if r < 0 {
			continue
		}
		plist := ix.post[ix.seg[2*r]:ix.seg[2*r+1]]
		if int(below) < len(ix.ts) {
			plist = lowerPart(plist, below)
		}
		w.reads += int64(len(plist))
		for _, j := range plist {
			if sc.counts[j] != 0 {
				continue
			}
			sc.counts[j] = 1
			sc.touched = append(sc.touched, j)
			x := ix.xr[ix.xoff[j]:ix.xoff[j+1]]
			need := ix.threshold(sc, lq, len(x))
			if int(need) > min(lq, len(x)) { // the length filter
				continue
			}
			w.candidates++
			o := int32(0)
			for _, s := range x {
				o += int32(sc.mark[s])
			}
			if o >= need {
				dst = append(dst, j)
			}
		}
	}
	for _, j := range sc.touched {
		sc.counts[j] = 0
	}
	sc.touched = sc.touched[:0]
	for _, r := range ranks {
		if r >= 0 {
			sc.mark[r] = 0
		}
	}
	return dst
}
