// Package linkage computes ROCK's link counts: link(p,q) is the number of
// common θ-neighbors of p and q. Links aggregate global information about
// the neighborhood graph — the paper's central insight is that merging by
// links is far more robust than merging by raw pairwise similarity.
//
// A link count is an entry of A·A for the 0/1 neighbor matrix A. Build
// counts the entries above the diagonal row by row and mirrors them
// below it. When the neighbor matrix's bit rows take no more memory
// than the neighbor lists and their transpose, every row runs on a
// bitset kernel that counts each candidate as the popcount of two bit
// rows; otherwise, as on every sparse input, every row runs on the
// paper's pair counting (every pair of a point's neighbors gains one
// link through it). The oracles live in this package's tests:
// FromNeighbors, the paper's serial loop into a map-based Table, and
// Dense, which recomputes every count as a bitset intersection popcount.
//
// CountPairs is the count-only pass: it returns Build's Pairs() without
// keeping a count or building the table, on the kernel Build would pick
// and with the same transpose and forward bit rows. The pipeline calls
// it instead of Build when the merge ends at the link graph's
// components, which it counts from the neighbor lists, and reads no
// count. Its tests hold it to Build's pair count.
//
// The production representation is Compact, a CSR (compressed sparse
// row) table with these invariants: rowStart is int64 and has length
// n+1, so tables index exactly past 2³¹ total entries; row i occupies
// cols/counts[rowStart[i]:rowStart[i+1]] with column indices strictly
// ascending (int32 — points per sample stay below 2³¹); the relation is
// symmetric (j in row i iff i in row j, equal counts) and irreflexive.
// Build's table is byte-identical to the serial algorithm's at every
// worker count.
package linkage

// Table holds link counts as a symmetric sparse adjacency: Adj[i][j] is
// link(i,j) for every j with link(i,j) > 0. Tests build one by hand, or
// through the oracles, and convert it with CompactFrom.
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
