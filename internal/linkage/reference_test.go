package linkage

import (
	"math/bits"

	"github.com/rockclust/rock/internal/similarity"
)

// The link builder's oracles. Build (parallel.go) is proven
// bit-identical to both at every worker count; neither ships in the
// library, and neither shares code with Build's kernels.

// FromNeighbors computes the link table by the paper's pair-counting
// algorithm: each point l contributes one link to every unordered pair of
// its neighbors.
func FromNeighbors(nb *similarity.Neighbors) *Table {
	n := nb.Len()
	t := &Table{Adj: make([]map[int32]int32, n)}
	for i := 0; i < n; i++ {
		t.Adj[i] = make(map[int32]int32)
	}
	for l := 0; l < n; l++ {
		list := nb.Lists[l]
		for a := 0; a < len(list); a++ {
			ia := list[a]
			for b := a + 1; b < len(list); b++ {
				ib := list[b]
				t.Adj[ia][ib]++
				t.Adj[ib][ia]++
			}
		}
	}
	return t
}

// Dense recomputes every link count as popcount(row(i) AND row(j)) over
// bitset neighbor rows, testing every pair. It is exact for symmetric
// lists only. O(n²·n/64) time, O(n²/8) space: use only for modest n.
func Dense(nb *similarity.Neighbors) *Table {
	n := nb.Len()
	rows := make([][]uint64, n)
	for i := 0; i < n; i++ {
		rows[i] = make([]uint64, (n+63)/64)
		for _, j := range nb.Lists[i] {
			rows[i][j/64] |= 1 << (j % 64)
		}
	}
	t := &Table{Adj: make([]map[int32]int32, n)}
	for i := 0; i < n; i++ {
		t.Adj[i] = make(map[int32]int32)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := 0
			for w := range rows[i] {
				c += bits.OnesCount64(rows[i][w] & rows[j][w])
			}
			if c > 0 {
				t.Adj[i][int32(j)] = int32(c)
				t.Adj[j][int32(i)] = int32(c)
			}
		}
	}
	return t
}
