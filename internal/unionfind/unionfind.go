// Package unionfind implements a disjoint-set forest with union by rank
// and path compression. It backs the QROCK variant of ROCK (clusters as
// connected components of the θ-neighbor graph), the merge phase's count
// of link-graph components, trace cuts, and component diagnostics in the
// experiment harness.
package unionfind

// Forest is a disjoint-set forest over the integers [0, n). The zero value
// is an empty forest; use New.
type Forest struct {
	parent []int32
	rank   []int8
	count  int
}

// New returns a forest of n singleton sets.
func New(n int) *Forest {
	f := &Forest{parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range f.parent {
		f.parent[i] = int32(i)
	}
	return f
}

// Len reports the number of elements.
func (f *Forest) Len() int { return len(f.parent) }

// Count reports the current number of disjoint sets.
func (f *Forest) Count() int { return f.count }

// Find returns the canonical representative of x's set.
func (f *Forest) Find(x int) int {
	root := x
	for f.parent[root] != int32(root) {
		root = int(f.parent[root])
	}
	for f.parent[x] != int32(root) {
		f.parent[x], x = int32(root), int(f.parent[x])
	}
	return root
}

// Union merges the sets containing x and y, reporting whether a merge
// happened (false when they were already together).
func (f *Forest) Union(x, y int) bool {
	rx, ry := f.Find(x), f.Find(y)
	if rx == ry {
		return false
	}
	if f.rank[rx] < f.rank[ry] {
		rx, ry = ry, rx
	}
	f.parent[ry] = int32(rx)
	if f.rank[rx] == f.rank[ry] {
		f.rank[rx]++
	}
	f.count--
	return true
}

// Same reports whether x and y are in the same set.
func (f *Forest) Same(x, y int) bool { return f.Find(x) == f.Find(y) }

// Labels returns a dense labeling of elements: elements in the same set
// share a label, labels are assigned 0,1,... in order of first appearance.
func (f *Forest) Labels() []int {
	labels := make([]int, len(f.parent))
	for i := range labels {
		labels[i] = -1
	}
	next := 0
	for i := range labels {
		r := f.Find(i)
		// A set's label is kept at its root's index, written when the set
		// first appears, which may precede the root's own turn.
		if labels[r] < 0 {
			labels[r] = next
			next++
		}
		labels[i] = labels[r]
	}
	return labels
}

// Components returns the members of each set, grouped, ordered by first
// appearance and ascending within each group.
func (f *Forest) Components() [][]int {
	out := make([][]int, f.count)
	for i, l := range f.Labels() {
		out[l] = append(out[l], i)
	}
	return out
}
