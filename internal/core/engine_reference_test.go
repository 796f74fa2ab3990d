package core

import (
	"sort"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/pqueue"
)

// This file preserves the original map-based agglomeration engine —
// map[int]*clus cluster storage, per-cluster link maps rebuilt on every
// merge, one indexed heap per cluster plus a global heap — as the oracle
// the arena engine (engine.go) is verified against, and as the "before"
// side of BenchmarkAgglomerateMap. It lives in test code only: the
// production pipeline never calls it.

// mapClus is one active cluster in the reference agglomeration: its
// members (local point indices), its cross-link counts to every other
// linked cluster, and a local max-heap of those clusters ordered by merge
// goodness — the paper's q[i].
type mapClus struct {
	size    int
	members []int32
	links   map[int]int
	heap    *pqueue.Heap
}

// agglomerateMap is the reference implementation of agglomerate: the
// paper's algorithm transcribed directly. A global heap holds, for every
// cluster, the goodness of its best local pair; each merge rebuilds the
// merged cluster's link map as the sum of its parents' and updates both
// heaps of every affected cluster — O(n² log n) worst case, with heavy
// allocation traffic (a fresh cluster struct, link map, and heap per
// merge).
func agglomerateMap(n int, lt *linkage.Compact, k int, good goodnessFunc, f float64, weedTrigger, weedMaxSize int, trace bool) engineResult {
	clusters := make(map[int]*mapClus, n)
	global := pqueue.New()
	for i := 0; i < n; i++ {
		clusters[i] = &mapClus{
			size:    1,
			members: []int32{int32(i)},
			links:   make(map[int]int, lt.Degree(i)),
			heap:    pqueue.New(),
		}
	}
	for i := 0; i < n; i++ {
		c := clusters[i]
		lt.Row(i, func(j, cnt int) {
			c.links[j] = cnt
			c.heap.Set(j, good(cnt, 1, 1, f))
		})
		updateGlobal(global, i, c)
	}

	var res engineResult
	nextID := n
	active := n
	weedDone := weedTrigger <= 0

	for active > k {
		u, g, ok := global.Pop()
		if !ok || g <= 0 {
			res.stoppedEarly = true
			break
		}
		cu := clusters[u]
		v, _, ok := cu.heap.Peek()
		if !ok {
			continue // defensively skip clusters that lost all links
		}
		cv := clusters[v]
		global.Remove(v)

		w := nextID
		nextID++
		if trace {
			res.trace = append(res.trace, MergeStep{
				A: u, B: v, Into: w,
				Goodness: g, Links: cu.links[v],
				SizeA: cu.size, SizeB: cv.size,
				Remaining: active - 1,
			})
		}
		cw := &mapClus{
			size:    cu.size + cv.size,
			members: append(cu.members, cv.members...),
			links:   make(map[int]int, len(cu.links)+len(cv.links)),
			heap:    pqueue.New(),
		}
		for x, cnt := range cu.links {
			if x != v {
				cw.links[x] = cnt
			}
		}
		for x, cnt := range cv.links {
			if x != u {
				cw.links[x] += cnt
			}
		}
		delete(clusters, u)
		delete(clusters, v)
		clusters[w] = cw

		for x, cnt := range cw.links {
			cx := clusters[x]
			delete(cx.links, u)
			delete(cx.links, v)
			cx.links[w] = cnt
			cx.heap.Remove(u)
			cx.heap.Remove(v)
			gx := good(cnt, cw.size, cx.size, f)
			cx.heap.Set(w, gx)
			cw.heap.Set(x, gx)
			updateGlobal(global, x, cx)
		}
		updateGlobal(global, w, cw)

		active--
		res.merges++

		if !weedDone && active <= weedTrigger {
			weedDone = true
			active -= weedMap(clusters, global, weedMaxSize, &res)
		}
	}

	// Collect surviving clusters deterministically: members ascending,
	// clusters ordered by their smallest member.
	for _, c := range clusters {
		m := make([]int, len(c.members))
		for i, v := range c.members {
			m[i] = int(v)
		}
		sort.Ints(m)
		res.clusters = append(res.clusters, m)
	}
	sort.Slice(res.clusters, func(i, j int) bool { return res.clusters[i][0] < res.clusters[j][0] })
	sort.Ints(res.weeded)
	return res
}

// weedMap removes clusters of size ≤ maxSize, detaching them from every
// surviving cluster's link map and heaps. It returns the number of
// clusters removed.
func weedMap(clusters map[int]*mapClus, global *pqueue.Heap, maxSize int, res *engineResult) int {
	var victims []int
	for id, c := range clusters {
		if c.size <= maxSize {
			victims = append(victims, id)
		}
	}
	sort.Ints(victims)
	for _, id := range victims {
		c := clusters[id]
		for _, m := range c.members {
			res.weeded = append(res.weeded, int(m))
		}
		for x := range c.links {
			cx, ok := clusters[x]
			if !ok {
				continue // x is itself a victim already removed
			}
			delete(cx.links, id)
			cx.heap.Remove(id)
			updateGlobal(global, x, cx)
		}
		global.Remove(id)
		delete(clusters, id)
	}
	return len(victims)
}

// updateGlobal synchronizes cluster x's entry in the global heap with the
// top of its local heap.
func updateGlobal(global *pqueue.Heap, x int, c *mapClus) {
	if _, p, ok := c.heap.Peek(); ok {
		global.Set(x, p)
	} else {
		global.Remove(x)
	}
}
