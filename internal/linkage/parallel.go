package linkage

import (
	"runtime"
	"slices"
	"sync"

	"github.com/rockclust/rock/internal/similarity"
)

// Options configure Build.
type Options struct {
	// Workers bounds the number of goroutines used by the sharded
	// builder; 0 means GOMAXPROCS. Output is identical for every value.
	Workers int
}

// Build computes the link table of nb directly in CSR form — the
// representation the agglomeration engine consumes — on the sharded
// builder FromNeighborsCSR, the only runtime path. The tests prove it
// bit-identical to the paper's serial pair counting (FromNeighbors in
// reference_test.go).
func Build(nb *similarity.Neighbors, opts Options) *Compact {
	return FromNeighborsCSR(nb, opts.Workers)
}

// FromNeighborsCSR computes link counts by sharded row-wise pair
// counting, assembling a CSR Compact directly with no intermediate maps.
//
// The identity it exploits: link(i,j) = |{l : i ∈ N(l) ∧ j ∈ N(l)}|, the
// paper's pair-counting total regrouped by row. Each worker owns
// disjoint shards of contiguous rows; for row i it walks every list that
// contains i (via a precomputed transpose of the neighbor lists, so the
// result is exact even for asymmetric lists) and accumulates counts in a
// dense scratch array — array increments instead of the map inserts of
// the paper's serial loop, which is what makes this builder faster than
// that loop even at one worker.
// Per-shard outputs are concatenated in shard order, so the table is
// deterministic and independent of the worker count. Total work is the
// same O(Σ_l m_l²) as the serial algorithm, spread across workers.
func FromNeighborsCSR(nb *similarity.Neighbors, workers int) *Compact {
	n := nb.Len()
	if n == 0 {
		return &Compact{rowStart: make([]int64, 1)}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Transpose the neighbor relation: revCols[revStart[i]:revStart[i+1]]
	// lists every l with i ∈ N(l), ascending (rows are filled in l order).
	// For the symmetric built-in measures this equals N(i); building it
	// costs O(E) and keeps the builder exact for any list structure.
	revStart := make([]int32, n+1)
	for _, list := range nb.Lists {
		for _, j := range list {
			revStart[j+1]++
		}
	}
	for i := 0; i < n; i++ {
		revStart[i+1] += revStart[i]
	}
	revCols := make([]int32, revStart[n])
	pos := make([]int32, n)
	copy(pos, revStart[:n])
	for l, list := range nb.Lists {
		for _, j := range list {
			revCols[pos[j]] = int32(l)
			pos[j]++
		}
	}

	// Shards are contiguous row ranges; each worker drains the shard
	// channel, writing only its own rows — no synchronization on output.
	const shardRows = 128
	numShards := (n + shardRows - 1) / shardRows
	shardCols := make([][]int32, numShards)
	shardCounts := make([][]int32, numShards)
	rowLen := make([]int32, n)

	shards := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			counts := make([]int32, n)
			touched := make([]int32, 0, 512)
			for s := range shards {
				lo := s * shardRows
				hi := lo + shardRows
				if hi > n {
					hi = n
				}
				var cols, cnts []int32
				for i := lo; i < hi; i++ {
					for _, l := range revCols[revStart[i]:revStart[i+1]] {
						for _, j := range nb.Lists[l] {
							if int(j) == i {
								continue
							}
							if counts[j] == 0 {
								touched = append(touched, j)
							}
							counts[j]++
						}
					}
					slices.Sort(touched)
					rowLen[i] = int32(len(touched))
					for _, j := range touched {
						cols = append(cols, j)
						cnts = append(cnts, counts[j])
						counts[j] = 0
					}
					touched = touched[:0]
				}
				shardCols[s] = cols
				shardCounts[s] = cnts
			}
		}()
	}
	for s := 0; s < numShards; s++ {
		shards <- s
	}
	close(shards)
	wg.Wait()

	// Assemble: prefix-sum the row lengths (in int64, so totals past 2^31
	// entries stay exact), then concatenate the shard arenas in shard
	// order — each arena already holds its rows in order.
	c := &Compact{rowStart: rowStartFromLengths(rowLen)}
	total := int(c.rowStart[n])
	c.cols = make([]int32, total)
	c.counts = make([]int32, total)
	off := 0
	for s := 0; s < numShards; s++ {
		copy(c.cols[off:], shardCols[s])
		off += copy(c.counts[off:], shardCounts[s])
	}
	return c
}
