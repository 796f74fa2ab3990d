package linkage

import (
	"math/bits"
	"slices"
	"sync"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/similarity"
)

// Options configure Build.
type Options struct {
	// Workers bounds the number of goroutines the builder runs on; 0
	// means GOMAXPROCS. Output is identical for every value.
	Workers int
}

// Build computes the link table of nb in CSR form, the representation
// the agglomeration engine consumes. The tests prove it byte-identical
// to the paper's serial pair counting (FromNeighbors) and to the
// bitset-popcount oracle (Dense), both in reference_test.go.
func Build(nb *similarity.Neighbors, opts Options) *Compact {
	c, _ := build(nb, opts.Workers)
	return c
}

// buildWork counts the work of one build: rows counted by each kernel,
// pair-counting increments, and the bitset kernel's 64-bit word
// operations (ORs and AND-popcounts). Every count is a function of the
// neighbor lists alone, so it is the same at every worker count.
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

// build counts link(i,j) = |R(i) ∩ R(j)|, where R(i) = {l : i ∈ N(l)} is
// the transpose of the neighbor lists, for every j > i, and mirrors each
// count into row j. For symmetric lists R(i) = N(i); building the
// transpose keeps the count exact for any list structure.
//
// One of two kernels counts every row of a build, picked by the memory
// guard below:
//
//   - the bitset kernel ORs the forward bit rows F[l] (the bits of N(l))
//     for l ∈ R(i) into the candidate set, then counts each candidate j
//     as popcount(T[i] AND T[j]) over the transpose bit rows T (the bits
//     of R(j)), with W = ⌈n/64⌉ words a row;
//   - pair counting walks N(l) for every l ∈ R(i) and increments a dense
//     scratch counter for each j > i.
//
// The bit rows take 2·n·W words of 8 bytes. They are built, and every
// row counted on them, only when 2·n·W ≤ E, the number of list entries,
// so they never take more bytes than the lists and their transpose (4
// bytes an entry each). Sparse inputs therefore never allocate them and
// count every row by pairs.
//
// Rows are claimed in chunks off chunkwork.Run; each chunk's upper rows
// go to their own slot, and a serial pass assembles the CSR, so the
// table is the same at every worker count.
func build(nb *similarity.Neighbors, workers int) (*Compact, buildWork) {
	n := nb.Len()
	if n == 0 {
		return &Compact{rowStart: make([]int64, 1)}, buildWork{}
	}

	// Transpose the neighbor relation: revCols[revStart[i]:revStart[i+1]]
	// lists every l with i ∈ N(l), ascending (rows are filled in l order).
	revStart := make([]int64, n+1)
	for _, list := range nb.Lists {
		for _, j := range list {
			revStart[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		revStart[i+1] += revStart[i]
	}
	entries := revStart[n]
	revCols := make([]int32, entries)
	pos := slices.Clone(revStart[:n])
	for l, list := range nb.Lists {
		for _, j := range list {
			revCols[pos[j]] = int32(l)
			pos[j]++
		}
	}

	words := (n + 63) / 64
	var fwd, rev []uint64
	if 2*int64(n)*int64(words) <= entries {
		fwd = make([]uint64, n*words)
		rev = make([]uint64, n*words)
		for l, list := range nb.Lists {
			for _, j := range list {
				fwd[l*words+int(j>>6)] |= 1 << (uint(j) & 63)
				rev[int(j)*words+l>>6] |= 1 << (uint(l) & 63)
			}
		}
	}

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
		if fwd != nil {
			cand = make([]uint64, words)
		} else {
			counts = make([]int32, n)
		}
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			var cols, cnts []int32
			for i := lo; i < hi; i++ {
				reach := revCols[revStart[i]:revStart[i+1]]
				start := len(cols)
				if fwd != nil {
					// Candidates j > i: the OR of F[l] over l ∈ R(i), with
					// the bits at or below i cleared.
					w0 := i >> 6
					c := cand[w0:]
					clear(c)
					for _, l := range reach {
						f := fwd[int(l)*words+w0 : (int(l)+1)*words]
						for k := range c {
							c[k] |= f[k]
						}
					}
					c[0] &^= uint64(2)<<(uint(i)&63) - 1
					ti := rev[i*words : (i+1)*words]
					for k, word := range c {
						for word != 0 {
							j := (w0+k)<<6 + bits.TrailingZeros64(word)
							word &= word - 1
							tj := rev[j*words : (j+1)*words]
							cnt := 0
							for x, t := range ti {
								cnt += bits.OnesCount64(t & tj[x])
							}
							cols = append(cols, int32(j))
							cnts = append(cnts, int32(cnt))
						}
					}
					w.bitRows++
					w.words += int64(len(reach))*int64(len(c)) + int64(len(cols)-start)*int64(words)
				} else {
					// Pair counting: each l ∈ R(i) links i to every j > i
					// in N(l).
					for _, l := range reach {
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
