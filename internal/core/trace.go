package core

import (
	"fmt"
	"sort"

	"github.com/rockclust/rock/internal/unionfind"
)

// MergeStep records one agglomeration step: clusters A and B (ids as
// defined below) merged into cluster Into with the given goodness and
// cross-link count, at the point where `Remaining` active clusters were
// left *after* the merge.
//
// Cluster ids follow the engine's convention: ids 0..n-1 are the initial
// singletons (n = points clustered, in input order of the clustered
// sample), and each merge allocates the next id. The trace is therefore a
// dendrogram: cutting it at any number of clusters reproduces the
// clustering ROCK would have returned for that k (weeding aside).
type MergeStep struct {
	A, B      int
	Into      int
	Goodness  float64
	Links     int
	SizeA     int
	SizeB     int
	Remaining int
}

// CutTrace replays a merge trace over n initial singletons and stops when
// the number of clusters reaches k (or the trace is exhausted — ROCK may
// stop early when links run out). It returns the members of each cluster
// by initial singleton index, clusters ordered by smallest member. Steps
// must form a trace as the engine records it: step t merges two distinct
// live clusters A and B into the new id n + t. A negative n, or any
// step, cut or not, that breaks this, is an error.
func CutTrace(n int, steps []MergeStep, k int) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: cut at k=%d", k)
	}
	if n < 0 {
		return nil, fmt.Errorf("core: trace over n=%d points", n)
	}
	uf := unionfind.New(n)
	// rep[id] is a singleton in cluster id while id is live, and -1 once
	// it has merged away.
	rep := make([]int, n, n+len(steps))
	for i := range rep {
		rep[i] = i
	}
	live := func(id int) bool { return id >= 0 && id < len(rep) && rep[id] >= 0 }
	remaining := n
	for t, s := range steps {
		if s.Into != n+t {
			return nil, fmt.Errorf("core: trace step %d merges into cluster %d, want %d", t, s.Into, n+t)
		}
		if s.A == s.B || !live(s.A) || !live(s.B) {
			return nil, fmt.Errorf("core: trace step %d merges %d and %d, not two live clusters", t, s.A, s.B)
		}
		ra := rep[s.A]
		if remaining > k {
			uf.Union(ra, rep[s.B])
			remaining--
		}
		rep[s.A], rep[s.B] = -1, -1
		rep = append(rep, ra)
	}
	comps := uf.Components()
	sort.Slice(comps, func(i, j int) bool { return comps[i][0] < comps[j][0] })
	return comps, nil
}
