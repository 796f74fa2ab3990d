package linkage

import (
	"slices"
	"sort"
)

// Compact is a read-only CSR (compressed sparse row) link table: one
// sorted adjacency array per point plus parallel counts. It holds the
// same information as Table in a fraction of the memory and with
// cache-friendly iteration, and is the representation the agglomeration
// engine consumes — built directly by the sharded parallel builder
// (FromNeighborsCSR, behind Build), or converted from a map-based Table
// (CompactFrom) when tests compare against the oracles or hand-build a
// link table.
type Compact struct {
	// rowStart is int64 so the total-entry ceiling is the address space,
	// not 2^31: at ~100k dense points the link table already brushes
	// against int32 offsets. Columns stay int32 — they index points, and
	// point counts beyond 2^31 are out of scope.
	rowStart []int64 // len n+1; row i occupies [rowStart[i], rowStart[i+1])
	cols     []int32
	counts   []int32
}

// CompactFrom converts a Table into its CSR form.
func CompactFrom(t *Table) *Compact {
	n := t.Len()
	lens := make([]int32, n)
	total := 0
	for i := 0; i < n; i++ {
		lens[i] = int32(len(t.Adj[i]))
		total += len(t.Adj[i])
	}
	c := &Compact{rowStart: rowStartFromLengths(lens)}
	c.cols = make([]int32, 0, total)
	c.counts = make([]int32, 0, total)
	for i := 0; i < n; i++ {
		row := make([]int32, 0, len(t.Adj[i]))
		for j := range t.Adj[i] {
			row = append(row, j)
		}
		sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		for _, j := range row {
			c.cols = append(c.cols, j)
			c.counts = append(c.counts, t.Adj[i][j])
		}
	}
	return c
}

// rowStartFromLengths prefix-sums per-row entry counts into the CSR
// row-start array. The accumulation is int64 throughout, so tables whose
// total entry count exceeds 2^31 index exactly; both builders and the
// boundary test share this path.
func rowStartFromLengths(lens []int32) []int64 {
	rs := make([]int64, len(lens)+1)
	for i, l := range lens {
		rs[i+1] = rs[i] + int64(l)
	}
	return rs
}

// Len reports the number of points.
func (c *Compact) Len() int { return len(c.rowStart) - 1 }

// Get returns link(i,j) by binary search over row i.
func (c *Compact) Get(i, j int) int {
	lo, hi := c.rowStart[i], c.rowStart[i+1]
	target := int32(j)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.cols[mid] < target:
			lo = mid + 1
		case c.cols[mid] > target:
			hi = mid
		default:
			return int(c.counts[mid])
		}
	}
	return 0
}

// Degree reports the number of points linked to i.
func (c *Compact) Degree(i int) int { return int(c.rowStart[i+1] - c.rowStart[i]) }

// Entries reports the total number of directed link entries — the length
// of the cols/counts arrays.
func (c *Compact) Entries() int { return len(c.cols) }

// Pairs reports the number of undirected positive-link pairs.
func (c *Compact) Pairs() int { return len(c.cols) / 2 }

// Equal reports whether two CSR tables hold identical structure and
// counts.
func (c *Compact) Equal(d *Compact) bool {
	return slices.Equal(c.rowStart, d.rowStart) &&
		slices.Equal(c.cols, d.cols) &&
		slices.Equal(c.counts, d.counts)
}

// Row iterates row i in ascending column order.
func (c *Compact) Row(i int, fn func(j, count int)) {
	for p := c.rowStart[i]; p < c.rowStart[i+1]; p++ {
		fn(int(c.cols[p]), int(c.counts[p]))
	}
}
