package pqueue

// Lazy is a lazy indexed max-heap over a fixed key space [0, n): the
// priority queue behind the arena agglomeration engine. Where Heap keeps
// one live position per key and moves it on every update (two map lookups
// plus a sift), Lazy never moves or deletes interior entries. Each Update
// bumps the key's version and pushes a fresh entry carrying that version;
// superseded entries stay in the array and are discarded when they
// surface at the top of a Pop. Invalidate bumps the version without
// pushing, which removes the key from the queue.
//
// Entries are ordered by priority descending, then by a caller-supplied
// tie-break id ascending. The id is captured in the entry at push time,
// so the comparator is a function of entry contents alone and the heap
// invariant survives keys whose external identity changes between pushes
// (the engine reuses arena slots but ties must break on logical cluster
// ids). Distinct live keys must carry distinct ids for pops to be fully
// deterministic.
//
// Seeding n keys costs O(n) via BulkSet + Fix instead of n sifts. Stale
// entries are garbage-collected wholesale whenever they outnumber live
// entries by more than 2:1, so the array stays within a constant factor
// of the live set and every operation is amortized O(log live).
type Lazy struct {
	entries []lazyEntry
	version []uint32
	present []bool // key has a live entry in the array
	live    int
}

type lazyEntry struct {
	prio float64
	id   int32 // tie-break identity, frozen at push time
	key  int32
	ver  uint32
}

// NewLazy returns an empty lazy heap over keys [0, n).
func NewLazy(n int) *Lazy {
	return &Lazy{version: make([]uint32, n), present: make([]bool, n)}
}

// Len reports the number of entries in the array, stale included —
// exposed for tests asserting the compaction bound.
func (h *Lazy) Len() int { return len(h.entries) }

// Live reports the number of keys with a current entry.
func (h *Lazy) Live() int { return h.live }

// BulkSet appends a live entry for key without restoring heap order; call
// Fix once after the last BulkSet. It must only be used to seed an empty
// heap, at most once per key.
func (h *Lazy) BulkSet(key int, id int32, prio float64) {
	h.entries = append(h.entries, lazyEntry{prio: prio, id: id, key: int32(key), ver: h.version[key]})
	h.present[key] = true
	h.live++
}

// Fix restores heap order in O(len) — Floyd's heapify. When stale entries
// dominate it compacts first, so the heapify runs over the live set plus
// a bounded stale fraction.
func (h *Lazy) Fix() {
	if h.overStale() {
		h.compact()
	}
	for i := len(h.entries)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Update makes (id, prio) the key's current entry, superseding any
// previous one.
func (h *Lazy) Update(key int, id int32, prio float64) {
	h.version[key]++
	if !h.present[key] {
		h.present[key] = true
		h.live++
	}
	h.entries = append(h.entries, lazyEntry{prio: prio, id: id, key: int32(key), ver: h.version[key]})
	h.siftUp(len(h.entries) - 1)
	h.maybeCompact()
}

// Invalidate removes the key's current entry, if any, by superseding it
// with nothing.
func (h *Lazy) Invalidate(key int) {
	h.version[key]++
	if h.present[key] {
		h.present[key] = false
		h.live--
	}
}

// Pop removes and returns the live entry with maximal (priority, -id).
// Stale entries encountered at the top are discarded along the way.
func (h *Lazy) Pop() (key int, prio float64, ok bool) {
	for len(h.entries) > 0 {
		top := h.entries[0]
		h.removeTop()
		if top.ver != h.version[top.key] || !h.present[top.key] {
			continue // superseded or invalidated
		}
		h.present[top.key] = false
		h.live--
		return int(top.key), top.prio, true
	}
	return 0, 0, false
}

func (h *Lazy) removeTop() {
	last := len(h.entries) - 1
	h.entries[0] = h.entries[last]
	h.entries = h.entries[:last]
	if last > 0 {
		h.siftDown(0)
	}
}

// overStale reports whether stale entries outnumber live ones by more
// than 2:1 — the array exceeding 3× the live count — which is the
// compaction threshold (small arrays are never worth compacting).
func (h *Lazy) overStale() bool {
	return len(h.entries) >= 64 && len(h.entries) > 3*h.live
}

// compact drops every superseded or invalidated entry in place. The
// caller must re-establish heap order (Fix) afterwards.
func (h *Lazy) compact() {
	kept := h.entries[:0]
	for _, e := range h.entries {
		if e.ver == h.version[e.key] && h.present[e.key] {
			kept = append(kept, e)
		}
	}
	h.entries = kept
}

// maybeCompact rebuilds the array from live entries when stale ones
// dominate, keeping memory and sift depth proportional to the live set.
func (h *Lazy) maybeCompact() {
	if h.overStale() {
		h.Fix()
	}
}

// less orders entries by priority descending, then id ascending; among
// entries for the same key, fresher versions first, making the layout —
// not just the pop sequence — deterministic.
func (h *Lazy) less(i, j int) bool {
	a, b := h.entries[i], h.entries[j]
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.ver > b.ver
}

func (h *Lazy) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *Lazy) siftDown(i int) {
	n := len(h.entries)
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
		h.entries[i], h.entries[best] = h.entries[best], h.entries[i]
		i = best
	}
}
