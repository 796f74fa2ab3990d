package linkage

import (
	"math/bits"
	"slices"
	"sync"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/similarity"
)

// Options configure Build and CountPairs.
type Options struct {
	// Workers bounds the number of goroutines the builder runs on; 0
	// means GOMAXPROCS. Output is identical for every value.
	Workers int
}

// Build computes the link table of nb in CSR form, the representation
// the agglomeration engine consumes. nb's lists must be ascending and
// symmetric, as similarity.Neighbors holds them. The tests prove it
// byte-identical to the paper's serial pair counting (FromNeighbors)
// and to the bitset-popcount oracle (Dense), both in reference_test.go.
func Build(nb *similarity.Neighbors, opts Options) *Compact {
	c, _ := build(nb, opts.Workers)
	return c
}

// CountPairs returns Build(nb, opts).Pairs(), the number of point pairs
// with a positive link count, without building the table: it keeps no
// count and assembles no CSR. The merge phase calls it when the link
// graph's components are its result and no count is read. nb's lists
// must be ascending and symmetric, as similarity.Neighbors holds them.
func CountPairs(nb *similarity.Neighbors, opts Options) int {
	p, _ := countPairs(nb, opts.Workers)
	return p
}

// buildWork counts the work of one build or count pass: rows counted by
// each kernel, pair-counting increments, and the bitset kernel's 64-bit
// word operations. Build's words are its ORs and AND-popcounts; the
// count pass's are its ORs alone, and its increments are the list
// entries past i it marks, as many as Build increments. Every count is
// a function of the neighbor lists alone, so it is the same at every
// worker count.
type buildWork struct {
	bitRows, pairRows int
	increments, words int64
}

func (w *buildWork) add(o buildWork) {
	w.bitRows += o.bitRows
	w.pairRows += o.pairRows
	w.increments += o.increments
	w.words += o.words
}

// bitRows applies the memory guard both passes pick their kernel by.
// It returns F, the bit rows of nb's lists, W = ⌈n/64⌉ words a row (bit
// j of row l is set for each j in N(l)), and W. F takes 8·n·W bytes and
// is built only when 2·n·W ≤ E, the number of list entries, so it never
// takes more bytes than the lists (4 bytes an entry). Otherwise bitRows
// returns nil and 0, and every row must count pairs.
func bitRows(nb *similarity.Neighbors) (rows []uint64, words int) {
	n := nb.Len()
	_, _, entries := nb.Stats()
	words = (n + 63) / 64
	if 2*int64(n)*int64(words) > int64(entries) {
		return nil, 0
	}
	rows = make([]uint64, n*words)
	for l, list := range nb.Lists {
		row := rows[l*words : (l+1)*words]
		for _, j := range list {
			row[j>>6] |= 1 << (uint(j) & 63)
		}
	}
	return rows, words
}

// candidates ORs the bit rows F[l], l ∈ N(i), into cand from row i's
// word on, clears the bits at or below i, and returns that tail of cand:
// its bits are the points j > i sharing a list with i, which, the lists
// being symmetric, are exactly the points j > i linked to i.
func candidates(cand, rows []uint64, words, i int, nbrs []int32) []uint64 {
	w0 := i >> 6
	c := cand[w0:]
	clear(c)
	for _, l := range nbrs {
		f := rows[int(l)*words+w0:][:len(c)]
		for k := range c {
			c[k] |= f[k]
		}
	}
	c[0] &^= uint64(2)<<(uint(i)&63) - 1
	return c
}

// build counts link(i,j) = |N(i) ∩ N(j)|, the common neighbors of i and
// j, for every j > i, and mirrors each count into row j. The lists are
// symmetric, so N(i) also names the lists that hold i.
//
// One of two kernels counts every row of a build, picked by the memory
// guard (bitRows), so sparse inputs never allocate bit rows and count
// every row by pairs:
//
//   - the bitset kernel ORs the bit rows F[l] for l ∈ N(i) into the
//     candidate set, then counts each candidate j as
//     popcount(F[i] AND F[j]), with W = ⌈n/64⌉ words a row;
//   - pair counting walks N(l) for every l ∈ N(i) and increments a dense
//     scratch counter for each j > i.
//
// Rows are claimed in chunks off chunkwork.Run; each chunk's upper rows
// go to their own slot, and a serial pass assembles the CSR, so the
// table is the same at every worker count.
func build(nb *similarity.Neighbors, workers int) (*Compact, buildWork) {
	n := nb.Len()
	if n == 0 {
		return &Compact{rowStart: make([]int64, 1)}, buildWork{}
	}
	rows, words := bitRows(nb)

	const chunk = chunkwork.DefaultChunk
	upCols := make([][]int32, (n+chunk-1)/chunk)
	upCounts := make([][]int32, len(upCols))
	upLen := make([]int32, n)
	var work buildWork
	var mu sync.Mutex
	chunkwork.Run(n, workers, chunk, func(next func() (int, int, bool)) {
		var w buildWork
		var counts []int32
		var touched []int32
		var cand []uint64
		if rows != nil {
			cand = make([]uint64, words)
		} else {
			counts = make([]int32, n)
		}
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			var cols, cnts []int32
			for i := lo; i < hi; i++ {
				nbrs := nb.Lists[i]
				start := len(cols)
				if rows != nil {
					w0 := i >> 6
					c := candidates(cand, rows, words, i, nbrs)
					ri := rows[i*words : (i+1)*words]
					for k, word := range c {
						for word != 0 {
							j := (w0+k)<<6 + bits.TrailingZeros64(word)
							word &= word - 1
							rj := rows[j*words : (j+1)*words]
							cnt := 0
							for x, r := range ri {
								cnt += bits.OnesCount64(r & rj[x])
							}
							cols = append(cols, int32(j))
							cnts = append(cnts, int32(cnt))
						}
					}
					w.bitRows++
					w.words += int64(len(nbrs))*int64(len(c)) + int64(len(cols)-start)*int64(words)
				} else {
					// Pair counting: each l ∈ N(i) links i to every j > i
					// in N(l).
					for _, l := range nbrs {
						for _, j := range nb.Lists[l] {
							if int(j) <= i {
								continue
							}
							if counts[j] == 0 {
								touched = append(touched, j)
							}
							counts[j]++
						}
					}
					slices.Sort(touched)
					for _, j := range touched {
						cols = append(cols, j)
						cnts = append(cnts, counts[j])
						w.increments += int64(counts[j])
						counts[j] = 0
					}
					touched = touched[:0]
					w.pairRows++
				}
				upLen[i] = int32(len(cols) - start)
			}
			upCols[lo/chunk] = cols
			upCounts[lo/chunk] = cnts
		}
		mu.Lock()
		work.add(w)
		mu.Unlock()
	})

	// Row i is its lower part, the entries (k, count) with i in the upper
	// part of row k < i in ascending k, then its own upper part. Taking
	// the upper parts in row order fills every lower part in order.
	lens := slices.Clone(upLen)
	for _, cols := range upCols {
		for _, j := range cols {
			lens[j]++
		}
	}
	c := &Compact{rowStart: rowStartFromLengths(lens)}
	total := c.rowStart[n]
	c.cols = make([]int32, total)
	c.counts = make([]int32, total)
	lower := slices.Clone(c.rowStart[:n])
	for s, cols := range upCols {
		cnts := upCounts[s]
		off := 0
		for i := s * chunk; i < min((s+1)*chunk, n); i++ {
			end := off + int(upLen[i])
			for k, j := range cols[off:end] {
				p := lower[j]
				c.cols[p] = int32(i)
				c.counts[p] = cnts[off+k]
				lower[j]++
			}
			up := c.rowStart[i+1] - int64(upLen[i])
			copy(c.cols[up:], cols[off:end])
			copy(c.counts[up:], cnts[off:end])
			off = end
		}
	}
	return c, work
}

// countPairs counts the pairs i < j build would store, on the kernel
// build would pick, without counts: its rows are build's rows with the
// counting left out.
//
//   - Bit rows: the popcount of the candidate set, the OR of F[l] over
//     l ∈ N(i) with the bits at or below i cleared. No candidate is
//     AND-popcounted.
//   - Pair counting: for each l ∈ N(i), the ascending list N(l) is
//     walked from its first entry past i, and a per-worker stamp marks
//     each j once a row. There is no counter, no sort and no CSR.
//
// Each worker sums its rows and the sums are added, so the count is the
// same at every worker count.
func countPairs(nb *similarity.Neighbors, workers int) (int, buildWork) {
	n := nb.Len()
	if n == 0 {
		return 0, buildWork{}
	}
	rows, words := bitRows(nb)

	pairs := 0
	var work buildWork
	var mu sync.Mutex
	chunkwork.Run(n, workers, chunkwork.DefaultChunk, func(next func() (int, int, bool)) {
		var w buildWork
		p := 0
		var cand []uint64
		var stamp []int32
		if rows != nil {
			cand = make([]uint64, words)
		} else {
			stamp = make([]int32, n)
		}
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				nbrs := nb.Lists[i]
				if rows != nil {
					c := candidates(cand, rows, words, i, nbrs)
					for _, word := range c {
						p += bits.OnesCount64(word)
					}
					w.bitRows++
					w.words += int64(len(nbrs)) * int64(len(c))
					continue
				}
				mark := int32(i) + 1 // unique to row i; the stamps start at 0
				for _, l := range nbrs {
					list := nb.Lists[l]
					k, _ := slices.BinarySearch(list, int32(i)+1)
					for _, j := range list[k:] {
						if stamp[j] != mark {
							stamp[j] = mark
							p++
						}
					}
					w.increments += int64(len(list) - k)
				}
				w.pairRows++
			}
		}
		mu.Lock()
		pairs += p
		work.add(w)
		mu.Unlock()
	})
	return pairs, work
}
