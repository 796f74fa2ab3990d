// Package linkage computes ROCK's link counts: link(p,q) is the number of
// common θ-neighbors of p and q. Links aggregate global information about
// the neighborhood graph — the paper's central insight is that merging by
// links is far more robust than merging by raw pairwise similarity.
//
// Three algorithms are provided. FromNeighbors is the paper's: for every
// point l, every pair of l's neighbors gains one link through l; expected
// cost O(Σ_i m_i²) for neighbor-list sizes m_i. FromNeighborsCSR shards
// that pair counting across workers, each owning contiguous rows and
// counting into dense scratch arrays; it is the production builder.
// FromNeighbors and Dense, which recomputes every count as a bitset
// intersection popcount, are its oracles in tests and the reference
// columns of `rockbench -links`.
//
// The production representation is Compact, a CSR (compressed sparse
// row) table with these invariants: rowStart is int64 and has length
// n+1, so tables index exactly past 2³¹ total entries; row i occupies
// cols/counts[rowStart[i]:rowStart[i+1]] with column indices strictly
// ascending (int32 — points per sample stay below 2³¹); the relation is
// symmetric (j in row i iff i in row j, equal counts) and irreflexive.
// Build runs the sharded constructor, whose table is bit-identical to
// the serial algorithm's at every worker count.
package linkage

import (
	"github.com/rockclust/rock/internal/bitset"
	"github.com/rockclust/rock/internal/similarity"
)

// Table holds link counts as a symmetric sparse adjacency: Adj[i][j] is
// link(i,j) for every j with link(i,j) > 0.
type Table struct {
	Adj []map[int32]int32
}

// Len reports the number of points.
func (t *Table) Len() int { return len(t.Adj) }

// Get returns link(i,j); zero when the points share no neighbors.
func (t *Table) Get(i, j int) int { return int(t.Adj[i][int32(j)]) }

// Degree reports the number of points linked to i.
func (t *Table) Degree(i int) int { return len(t.Adj[i]) }

// Pairs reports the number of undirected pairs with a positive link count.
func (t *Table) Pairs() int {
	n := 0
	for _, m := range t.Adj {
		n += len(m)
	}
	return n / 2
}

// Equal reports whether two tables hold identical counts.
func (t *Table) Equal(u *Table) bool {
	if t.Len() != u.Len() {
		return false
	}
	for i := range t.Adj {
		if len(t.Adj[i]) != len(u.Adj[i]) {
			return false
		}
		for j, c := range t.Adj[i] {
			if u.Adj[i][j] != c {
				return false
			}
		}
	}
	return true
}

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
