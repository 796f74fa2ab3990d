package serve

import (
	"sync"
	"time"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/vclock"
)

// Request batching / coalescing.
//
// The batcher accumulates the queries of concurrent /assign requests
// into one open batch and flushes it, as one AssignBatch call, when
// either the batch reaches MaxBatch queries or FlushEvery elapses since
// the batch opened — the classic size-or-deadline coalescing loop.
// AssignBatch's workers claim 64 queries at a time, so a flush of 64
// queries or fewer runs on one goroutine, and a larger one, such as a
// full MaxBatch (256), shards across the workers. What coalescing saves
// is per-call overhead; what it costs is up to FlushEvery of waiting.
// Requests block until their flush completes and receive exactly their
// slice of the results, so coalescing is invisible to callers beyond
// latency.
//
// Batches never mix model generations: every batch is tied to the
// liveModel its first request acquired, because query transactions are
// remapped into a specific model's item id space before submission. A
// submission under a newer model flushes the older batch immediately —
// which is also what drains in-flight batches promptly during a hot
// swap. Flushes run on their own goroutine so a full batch never
// executes on the submitting request's lock hold.

// waiter is one blocked request: n queries, answered on ch in one send.
type waiter struct {
	ch chan []int
	n  int
}

// batcher coalesces concurrent assignment requests into shared batches.
type batcher struct {
	maxBatch   int
	flushEvery time.Duration
	workers    int
	stats      *serverStats
	clock      vclock.Clock // deadline timer source; vclock.Real in production

	mu      sync.Mutex
	seq     uint64 // open-batch id, so a stale deadline timer cannot flush a successor
	lm      *liveModel
	queries []dataset.Transaction
	waiters []waiter
}

// submit enqueues a request's queries against the model it acquired and
// blocks until the containing batch flushes, returning this request's
// assignments. The caller must hold a reference on lm for the duration
// of the call (the HTTP handler's acquire/release brackets it).
func (b *batcher) submit(lm *liveModel, qs []dataset.Transaction) []int {
	if len(qs) == 0 {
		return []int{}
	}
	ch := make(chan []int, 1)
	b.mu.Lock()
	// A batch opened under an older model must not absorb queries mapped
	// for a newer one — flush it now and open a fresh batch.
	if b.lm != nil && b.lm != lm {
		b.flushLocked()
	}
	if b.lm == nil {
		b.lm = lm
		seq := b.seq
		b.clock.AfterFunc(b.flushEvery, func() { b.flushDeadline(seq) })
	}
	b.queries = append(b.queries, qs...)
	b.waiters = append(b.waiters, waiter{ch, len(qs)})
	if len(b.queries) >= b.maxBatch {
		b.flushLocked()
	}
	b.mu.Unlock()
	return <-ch
}

// flushDeadline is the deadline half of size-or-deadline: it fires
// FlushEvery after a batch opens and flushes it iff it is still the open
// batch (a size flush may already have retired it).
func (b *batcher) flushDeadline(seq uint64) {
	b.mu.Lock()
	if b.lm != nil && b.seq == seq {
		b.flushLocked()
	}
	b.mu.Unlock()
}

// flushLocked hands the open batch to a flusher goroutine and resets the
// open-batch state. Caller holds b.mu.
func (b *batcher) flushLocked() {
	lm, qs, ws := b.lm, b.queries, b.waiters
	b.lm, b.queries, b.waiters = nil, nil, nil
	b.seq++
	b.stats.observeBatch(len(qs), len(ws))
	go func() {
		out := lm.model.AssignBatch(qs, b.workers)
		off := 0
		for _, w := range ws {
			w.ch <- out[off : off+w.n : off+w.n]
			off += w.n
		}
	}()
}

// pendingWaiters reports how many requests sit in the open batch — a
// test hook for the coalescing and generation-boundary tests.
func (b *batcher) pendingWaiters() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.waiters)
}
