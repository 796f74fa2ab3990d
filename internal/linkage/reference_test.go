package linkage

import (
	"github.com/rockclust/rock/internal/bitset"
	"github.com/rockclust/rock/internal/similarity"
)

// The link builder's oracles. FromNeighborsCSR (parallel.go) is proven
// bit-identical to both at every worker count; neither ships in the
// library.

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
// bitset neighbor rows. O(n²·n/64) time, O(n²/8) space: use only for
// modest n (tests, small samples).
func Dense(nb *similarity.Neighbors) *Table {
	n := nb.Len()
	rows := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		rows[i] = bitset.New(n)
		for _, j := range nb.Lists[i] {
			rows[i].Set(int(j))
		}
	}
	t := &Table{Adj: make([]map[int32]int32, n)}
	for i := 0; i < n; i++ {
		t.Adj[i] = make(map[int32]int32)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c := rows[i].AndCount(rows[j]); c > 0 {
				t.Adj[i][int32(j)] = int32(c)
				t.Adj[j][int32(i)] = int32(c)
			}
		}
	}
	return t
}
