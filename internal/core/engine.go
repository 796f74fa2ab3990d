package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/pqueue"
)

// The agglomeration engine keeps its clusters in a flat arena: parallel
// arrays indexed by slot instead of a map of heap-allocated structs. A
// merge reuses the popped cluster's slot for the product, member lists
// are an intrusive linked list over point indices, and per-cluster links
// are sorted []linkEntry rows merged with a two-pointer pass into pooled
// buffers — the hot loop neither allocates nor touches a hash map. The
// per-cluster heaps of the reference engine collapse into one cached
// best partner per slot, a runner-up bound beside it, and a single lazy
// indexed heap (pqueue.Lazy) over those bests. The bound keeps a merge's
// best-partner repair O(1) per patched neighbor: a neighbor rescans its
// row only when its best was consumed by the merge and the merged
// product falls at or below the bound. GoodnessROCK reads a per-run
// power table instead of calling math.Pow (powTable). Output is
// byte-identical to the reference (engine_reference_test.go); the oracle
// test enforces it configuration by configuration.

// linkEntry is one cross-link in a cluster's adjacency row: the arena
// slot of the linked cluster and the aggregated cross-link count. Rows
// stay sorted by slot, so merging two rows is a two-pointer pass and
// point lookups are binary searches. int32 counts cap one cluster pair at
// ~2.1B aggregated links.
type linkEntry struct {
	to  int32
	cnt int32
}

// engineResult is the raw outcome of agglomeration over local indices
// [0,n).
type engineResult struct {
	clusters     [][]int // members, each sorted ascending; ordered by first member
	weeded       []int   // members of clusters discarded at the weeding checkpoint
	merges       int
	stoppedEarly bool        // ran out of cross links before reaching k clusters
	trace        []MergeStep // populated when tracing is requested
	// Merge work, deterministic for a given input: full row rescans and
	// the row entries they read (the initial best of every slot
	// included).
	rescans int
	scanned int
}

// arena is the flat agglomeration state. Slots [0, n) are live cluster
// storage; a merged cluster reuses one parent's slot, so `alive` plus the
// logical `id` array replace the reference engine's map[int]*clus.
// Logical ids follow the reference convention — singletons are 0..n-1 and
// each merge allocates the next id — because the paper's tie-breaks (and
// the trace) are defined over those ids, not over storage slots.
type arena struct {
	good Goodness
	pow  powTable // GoodnessROCK's power table; nil for the other kinds

	alive []bool
	id    []int32 // slot -> logical cluster id
	size  []int32
	// Intrusive member lists: head/tail index points, next chains them.
	// Merging is two pointer writes; no member slice is ever copied.
	head, tail, next []int32

	rows [][]linkEntry // slot -> adjacency row, sorted by slot

	// Cached best merge partner per slot — the top of the reference
	// engine's per-cluster heap — and the lazy global heap over them.
	bestTo []int32 // slot of best partner, -1 when unlinked
	bestG  []float64
	heap   *pqueue.Lazy
	// Runner-up bound per slot: a (goodness, logical id) pair that sorts,
	// in (goodness desc, id asc) order, at or before every entry of the
	// slot's row except the cached best. rescanBest sets it to the exact
	// runner-up, or to (−Inf, MaxInt32) — after every real entry — when
	// the row has no second entry. It may name a cluster that has since
	// merged away.
	boundG  []float64
	boundID []int32

	pool [][]linkEntry // retired row buffers, reused for merged rows

	rescans, scanned int // merge work, reported in engineResult
}

// agglomerate runs ROCK's clustering phase: starting from n singleton
// clusters whose pairwise links are given by the CSR table lt, repeatedly
// merge the pair with maximal goodness until k clusters remain or no two
// clusters share a link — the paper's O(n² log n) algorithm on the arena
// representation above. Each merge touches only the merged row and the
// rows of its neighbors.
//
// If weedTrigger > 0, the first time the number of active clusters falls
// to weedTrigger, clusters of size ≤ weedMaxSize are discarded as outliers
// (the paper's device for isolating stray points that merge with nothing).
func agglomerate(n int, lt *linkage.Compact, k int, good Goodness, f float64, weedTrigger, weedMaxSize int, trace bool) engineResult {
	slotOf := make([]int32, n)
	for i := range slotOf {
		slotOf[i] = int32(i)
	}
	a, err := newArena(lt, slotOf, n, good, f)
	if err != nil {
		// Singleton slots copy lt's int32 counts unchanged, so the only
		// error left is a GoodnessROCK power table that overflows at n
		// points; the pipeline returns it, this entry point panics.
		panic(err)
	}
	return runAgglomeration(a, k, weedTrigger, weedMaxSize, trace)
}

// runAgglomeration drives the merge loop over a built arena, whether its
// slots start as singletons or as pre-formed seed groups. Logical ids
// continue from the initial slot count, so the tie-break convention holds
// for both.
func runAgglomeration(a *arena, k, weedTrigger, weedMaxSize int, trace bool) engineResult {
	var res engineResult
	nextID := len(a.alive)
	active := 0
	for _, live := range a.alive {
		if live {
			active++
		}
	}
	weedDone := weedTrigger <= 0

	for active > k {
		ui, g, ok := a.heap.Pop()
		if !ok || g <= 0 {
			res.stoppedEarly = true
			break
		}
		// A popped entry is never stale — pqueue.Lazy discards superseded
		// entries internally — so the best partner is always present,
		// unlike the reference engine's defensive empty-heap skip.
		u := int32(ui)
		v := a.bestTo[u]
		w := int32(nextID)
		nextID++
		if trace {
			res.trace = append(res.trace, MergeStep{
				A: int(a.id[u]), B: int(a.id[v]), Into: int(w),
				Goodness: g, Links: int(a.rowCount(u, v)),
				SizeA: int(a.size[u]), SizeB: int(a.size[v]),
				Remaining: active - 1,
			})
		}
		a.merge(u, v, w)

		active--
		res.merges++

		if !weedDone && active <= weedTrigger {
			weedDone = true
			active -= a.weed(weedMaxSize, &res)
		}
	}

	a.collect(&res)
	res.rescans, res.scanned = a.rescans, a.scanned
	return res
}

// newArena builds the arena over the point-level CSR link table lt with
// one initial slot per group of points: slotOf[p] in [0, slots) names
// point p's slot, and every slot holds at least one point. Member chains
// list each slot's points in ascending order. Each slot's row is the
// fold of its members' rows — counts summed per target slot, links inside
// the slot dropped, exactly as if its points had been merged pairwise —
// assembled with a dense per-slot scratch straight into one backing
// array; folding never adds entries, so lt.Entries() bounds it. With
// singleton slots (slotOf the identity) the fold copies lt row by row.
// The lazy heap is bulk-initialized in O(slots) from each slot's best
// partner. GoodnessROCK's power table covers every size up to the point
// count. newArena fails on a power table that overflows float64
// (checkPowTable, shared with mergePhase's components path) and on a
// folded count past int32, which singleton slots cannot produce. The
// count guard, like addCounts's panic, belongs to the arena alone: the
// components path builds no table and reads no counts, so an input whose
// folded counts would overflow still returns its components when they
// number K or more.
func newArena(lt *linkage.Compact, slotOf []int32, slots int, good Goodness, f float64) (*arena, error) {
	if err := checkPowTable(good, len(slotOf), f); err != nil {
		return nil, err
	}
	a := &arena{
		good:    good,
		alive:   make([]bool, slots),
		id:      make([]int32, slots),
		size:    make([]int32, slots),
		head:    make([]int32, slots),
		tail:    make([]int32, slots),
		next:    make([]int32, len(slotOf)),
		rows:    make([][]linkEntry, slots),
		bestTo:  make([]int32, slots),
		bestG:   make([]float64, slots),
		heap:    pqueue.NewLazy(slots),
		boundG:  make([]float64, slots),
		boundID: make([]int32, slots),
	}
	if good == GoodnessROCK {
		a.pow = newPowTable(len(slotOf), f)
	}
	for s := range a.alive {
		a.alive[s] = true
		a.id[s] = int32(s)
	}
	for p, s := range slotOf {
		if a.size[s] == 0 {
			a.head[s] = int32(p)
		} else {
			a.next[a.tail[s]] = int32(p)
		}
		a.tail[s] = int32(p)
		a.next[p] = -1
		a.size[s]++
	}

	backing := make([]linkEntry, 0, lt.Entries())
	sum := make([]int64, slots)
	var touched []int32
	for s := int32(0); int(s) < slots; s++ {
		for p := a.head[s]; p >= 0; p = a.next[p] {
			lt.Row(int(p), func(j, cnt int) {
				if t := slotOf[j]; t != s {
					if sum[t] == 0 {
						touched = append(touched, t)
					}
					sum[t] += int64(cnt)
				}
			})
		}
		slices.Sort(touched)
		start := len(backing)
		for _, t := range touched {
			if sum[t] > math.MaxInt32 {
				return nil, fmt.Errorf("core: aggregated cross-link count %d between seed clusters exceeds 2^31", sum[t])
			}
			backing = append(backing, linkEntry{to: t, cnt: int32(sum[t])})
			sum[t] = 0
		}
		touched = touched[:0]
		// Capacity-clamp each row to its own region so a stray append can
		// never stomp a neighbor's row.
		a.rows[s] = backing[start:len(backing):len(backing)]
		a.rescanBest(s)
		if a.bestTo[s] >= 0 {
			a.heap.BulkSet(int(s), s, a.bestG[s])
		}
	}
	a.heap.Fix()
	return a, nil
}

// merge folds cluster v into cluster u's slot as the new cluster with
// logical id w: rows are two-pointer merged into a pooled buffer, every
// neighbor's row is patched in place, and affected cached bests are
// repaired.
func (a *arena) merge(u, v, w int32) {
	a.heap.Invalidate(int(v)) // u's entry was consumed by the pop

	merged := mergeRows(a.rows[u], a.rows[v], u, v, a.takeBuf())
	a.pool = append(a.pool, a.rows[u][:0], a.rows[v][:0])
	a.rows[u] = merged
	a.rows[v] = nil

	a.alive[v] = false
	a.id[u] = w
	a.size[u] += a.size[v]
	a.next[a.tail[u]] = a.head[v]
	a.tail[u] = a.tail[v]

	for _, e := range merged {
		a.patchNeighbor(e.to, u, v, e.cnt)
	}
	a.rescanBest(u)
	a.publish(u)
}

// patchNeighbor rewrites x's row after slots u and v merged into slot u
// with combined count cnt, then repairs x's cached best and bound. Rows
// never grow: the patch is a count update, an in-place deletion, or an
// in-place shifted replacement.
func (a *arena) patchNeighbor(x, u, v, cnt int32) {
	row := a.rows[x]
	pu := lowerBound(row, u)
	hasU := pu < len(row) && row[pu].to == u
	pv := lowerBound(row, v)
	hasV := pv < len(row) && row[pv].to == v
	switch {
	case hasU && hasV:
		row[pu].cnt = cnt
		copy(row[pv:], row[pv+1:])
		row = row[:len(row)-1]
	case hasU:
		row[pu].cnt = cnt // x was linked to u only; the count is unchanged
	case u < v:
		// Only v: its entry moves down to u's sorted position.
		copy(row[pu+1:pv+1], row[pu:pv])
		row[pu] = linkEntry{to: u, cnt: cnt}
	default:
		// Only v, and u sorts after it: shift the gap up instead.
		copy(row[pv:pu-1], row[pv+1:pu])
		row[pu-1] = linkEntry{to: u, cnt: cnt}
	}
	a.rows[x] = row

	// Only the product entry is new: every other entry keeps its sizes,
	// count and ids, hence its goodness. The product carries the youngest
	// id, so on a goodness tie it sorts after every other entry.
	g, w := a.pairGoodness(x, u, cnt), a.id[u]
	old := a.bestG[x]
	switch bt := a.bestTo[x]; {
	case bt == u || bt == v:
		// The merge consumed the cached best. Every surviving entry sorts
		// at or after the bound, so a product strictly before the bound
		// is the new best and the bound still holds; otherwise only a
		// rescan can tell the runner-up from the product.
		if sortsBefore(g, w, a.boundG[x], a.boundID[x]) {
			a.bestTo[x], a.bestG[x] = u, g
		} else {
			a.rescanBest(x)
		}
		if a.bestG[x] != old {
			a.publish(x)
		}
	case sortsBefore(g, w, old, a.id[bt]):
		// The product displaces the best, which becomes the bound: it
		// sorted at or before every other entry.
		a.boundG[x], a.boundID[x] = old, a.id[bt]
		a.bestTo[x], a.bestG[x] = u, g
		a.publish(x)
	case sortsBefore(g, w, a.boundG[x], a.boundID[x]):
		a.boundG[x], a.boundID[x] = g, w
	}
}

// weed removes clusters of size ≤ maxSize, detaching them from every
// surviving cluster's row and repairing the survivors' bests. It returns
// the number of clusters removed.
func (a *arena) weed(maxSize int, res *engineResult) int {
	n := len(a.alive)
	var victims []int32
	for s := int32(0); int(s) < n; s++ {
		if a.alive[s] && int(a.size[s]) <= maxSize {
			victims = append(victims, s)
		}
	}
	for _, s := range victims {
		a.alive[s] = false
		a.heap.Invalidate(int(s))
		for m := a.head[s]; m >= 0; m = a.next[m] {
			res.weeded = append(res.weeded, int(m))
		}
	}
	dirty := make([]bool, n)
	for _, s := range victims {
		for _, e := range a.rows[s] {
			x := e.to
			if !a.alive[x] {
				continue // a fellow victim
			}
			row := a.rows[x]
			p := lowerBound(row, s)
			copy(row[p:], row[p+1:])
			a.rows[x] = row[:len(row)-1]
			dirty[x] = true
		}
		a.pool = append(a.pool, a.rows[s][:0])
		a.rows[s] = nil
	}
	for x := int32(0); int(x) < n; x++ {
		if !dirty[x] {
			continue
		}
		old := a.bestG[x]
		a.rescanBest(x)
		if a.bestTo[x] < 0 || a.bestG[x] != old {
			a.publish(x)
		}
	}
	return len(victims)
}

// collect gathers surviving clusters deterministically: members
// ascending, clusters ordered by their smallest member.
func (a *arena) collect(res *engineResult) {
	for s := range a.alive {
		if !a.alive[s] {
			continue
		}
		m := make([]int, 0, a.size[s])
		for p := a.head[s]; p >= 0; p = a.next[p] {
			m = append(m, int(p))
		}
		sort.Ints(m)
		res.clusters = append(res.clusters, m)
	}
	sort.Slice(res.clusters, func(i, j int) bool { return res.clusters[i][0] < res.clusters[j][0] })
	sort.Ints(res.weeded)
}

// pairGoodness evaluates the goodness of merging the clusters in slots x
// and y over cnt cross links, passing sizes in the order the reference
// engine used when it stored the pair: the more recently created cluster
// (higher logical id) first. GoodnessROCK is symmetric in value but not
// in rounding — it subtracts the first size's power first — so the
// convention is what keeps output byte-identical.
func (a *arena) pairGoodness(x, y, cnt int32) float64 {
	ni, nj := a.size[x], a.size[y]
	if a.id[y] > a.id[x] {
		ni, nj = nj, ni
	}
	switch a.good {
	case GoodnessROCK:
		return a.pow.goodness(cnt, ni, nj)
	case GoodnessLinkCount:
		return float64(cnt)
	default: // GoodnessLinksPerPair
		return float64(cnt) / (float64(ni) * float64(nj))
	}
}

// sortsBefore reports whether the entry (g, id) precedes (h, hid) in the
// merge order: higher goodness first, ties toward the smaller logical id.
func sortsBefore(g float64, id int32, h float64, hid int32) bool {
	return g > h || (g == h && id < hid)
}

// rescanBest recomputes slot x's cached best partner from its row — max
// goodness, ties toward the smaller logical id: exactly the top of the
// reference engine's per-cluster heap — and sets the bound to the exact
// runner-up.
func (a *arena) rescanBest(x int32) {
	row := a.rows[x]
	a.rescans++
	a.scanned += len(row)
	bt, bg, bid := int32(-1), 0.0, int32(0)
	sg, sid := math.Inf(-1), int32(math.MaxInt32)
	for _, e := range row {
		g, id := a.pairGoodness(x, e.to, e.cnt), a.id[e.to]
		switch {
		case bt < 0:
			bt, bg, bid = e.to, g, id
		case sortsBefore(g, id, bg, bid):
			sg, sid = bg, bid
			bt, bg, bid = e.to, g, id
		case sortsBefore(g, id, sg, sid):
			sg, sid = g, id
		}
	}
	a.bestTo[x], a.bestG[x] = bt, bg
	a.boundG[x], a.boundID[x] = sg, sid
}

// publish syncs slot x's global-heap entry with its cached best.
func (a *arena) publish(x int32) {
	if a.bestTo[x] < 0 {
		a.heap.Invalidate(int(x))
	} else {
		a.heap.Update(int(x), a.id[x], a.bestG[x])
	}
}

// rowCount returns the link count between slots x and y (y must be in
// x's row).
func (a *arena) rowCount(x, y int32) int32 {
	return a.rows[x][lowerBound(a.rows[x], y)].cnt
}

// takeBuf returns a retired row buffer, or nil (the subsequent appends
// then allocate).
func (a *arena) takeBuf() []linkEntry {
	if n := len(a.pool); n > 0 {
		b := a.pool[n-1][:0]
		a.pool = a.pool[:n-1]
		return b
	}
	return nil
}

// mergeRows two-pointer merges the rows of u and v into out, dropping
// their entries for each other and summing counts of common neighbors.
func mergeRows(ru, rv []linkEntry, u, v int32, out []linkEntry) []linkEntry {
	i, j := 0, 0
	for i < len(ru) && j < len(rv) {
		switch {
		case ru[i].to == v:
			i++
		case rv[j].to == u:
			j++
		case ru[i].to < rv[j].to:
			out = append(out, ru[i])
			i++
		case rv[j].to < ru[i].to:
			out = append(out, rv[j])
			j++
		default:
			out = append(out, linkEntry{to: ru[i].to, cnt: addCounts(ru[i].cnt, rv[j].cnt)})
			i++
			j++
		}
	}
	for ; i < len(ru); i++ {
		if ru[i].to != v {
			out = append(out, ru[i])
		}
	}
	for ; j < len(rv); j++ {
		if rv[j].to != u {
			out = append(out, rv[j])
		}
	}
	return out
}

// addCounts sums two link counts, failing loudly if the aggregate
// overflows linkEntry's int32 — silent wraparound would corrupt goodness
// values and diverge from the reference engine undetectably.
func addCounts(a, b int32) int32 {
	s := int64(a) + int64(b)
	if s > math.MaxInt32 {
		panic("core: aggregated cross-link count exceeds 2^31; the arena engine's int32 link rows cannot represent this workload")
	}
	return int32(s)
}

// lowerBound returns the first index in row whose slot is ≥ slot.
func lowerBound(row []linkEntry, slot int32) int {
	lo, hi := 0, len(row)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if row[mid].to < slot {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
