// Package pqueue implements the two priority queues behind ROCK's merge
// engines.
//
// Heap is an eager indexed binary max-heap over integer keys: O(log n)
// insert, pop, and — crucially for the reference engine, which keeps one
// "local" heap per cluster and a "global" heap over clusters — O(log n)
// update and removal of arbitrary keys. Ties in priority break toward
// the smaller key, making heap-driven algorithms deterministic.
//
// Lazy is the version-stamped heap the arena engine uses. Its contract:
// every key carries a version counter; Update bumps the version and
// pushes a fresh entry stamped with it, never moving or deleting interior
// entries; Invalidate bumps the version without pushing. An entry is live
// iff its stamp equals its key's current version — superseded entries
// stay in the array and are discarded when they surface at a pop. Each
// entry freezes a caller-supplied tie-break id at push time, so ordering
// (priority desc, id asc) is a function of entry contents alone and
// survives keys whose external identity changes between pushes (arena
// slots are reused; ties must break on logical cluster ids — distinct
// live keys must carry distinct ids for fully deterministic pops).
// Seeding is O(n) via BulkSet + Fix; stale entries are compacted away
// whenever they outnumber live ones by more than 2:1 (the array exceeding
// 3× the live count), keeping every operation amortized O(log live).
package pqueue

// Heap is an indexed max-heap. The zero value is not usable; call New.
type Heap struct {
	keys []int           // heap-ordered keys
	prio map[int]float64 // key -> priority
	pos  map[int]int     // key -> index in keys
}

// New returns an empty heap.
func New() *Heap {
	return &Heap{prio: make(map[int]float64), pos: make(map[int]int)}
}

// Len reports the number of keys in the heap.
func (h *Heap) Len() int { return len(h.keys) }

// Contains reports whether key is in the heap.
func (h *Heap) Contains(key int) bool {
	_, ok := h.pos[key]
	return ok
}

// Priority returns the priority of key, and whether it is present.
func (h *Heap) Priority(key int) (float64, bool) {
	p, ok := h.prio[key]
	return p, ok
}

// Set inserts key with the given priority, or updates its priority if it
// is already present.
func (h *Heap) Set(key int, prio float64) {
	if i, ok := h.pos[key]; ok {
		old := h.prio[key]
		h.prio[key] = prio
		switch {
		case h.better(prio, key, old, key):
			h.siftUp(i)
		default:
			h.siftDown(i)
		}
		return
	}
	h.prio[key] = prio
	h.pos[key] = len(h.keys)
	h.keys = append(h.keys, key)
	h.siftUp(len(h.keys) - 1)
}

// Remove deletes key from the heap, reporting whether it was present.
func (h *Heap) Remove(key int) bool {
	i, ok := h.pos[key]
	if !ok {
		return false
	}
	last := len(h.keys) - 1
	h.swap(i, last)
	h.keys = h.keys[:last]
	delete(h.pos, key)
	delete(h.prio, key)
	if i < last {
		h.siftDown(i)
		h.siftUp(i)
	}
	return true
}

// Peek returns the maximum-priority key without removing it.
func (h *Heap) Peek() (key int, prio float64, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	k := h.keys[0]
	return k, h.prio[k], true
}

// Pop removes and returns the maximum-priority key.
func (h *Heap) Pop() (key int, prio float64, ok bool) {
	key, prio, ok = h.Peek()
	if ok {
		h.Remove(key)
	}
	return key, prio, ok
}

// Keys returns the keys currently in the heap in unspecified order.
func (h *Heap) Keys() []int {
	out := make([]int, len(h.keys))
	copy(out, h.keys)
	return out
}

// better reports whether entry (pa, ka) sorts strictly above (pb, kb):
// higher priority first, then smaller key.
func (h *Heap) better(pa float64, ka int, pb float64, kb int) bool {
	if pa != pb {
		return pa > pb
	}
	return ka < kb
}

func (h *Heap) less(i, j int) bool {
	ki, kj := h.keys[i], h.keys[j]
	return h.better(h.prio[ki], ki, h.prio[kj], kj)
}

func (h *Heap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]] = i
	h.pos[h.keys[j]] = j
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.keys)
	for {
		best := i
		if l := 2*i + 1; l < n && h.less(l, best) {
			best = l
		}
		if r := 2*i + 2; r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
