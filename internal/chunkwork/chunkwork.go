// Package chunkwork provides the chunked atomic-cursor work-claiming
// loop shared by the pipeline's sharded phases: the labeling phase and
// Model.AssignBatch (core), the neighbor computations (similarity), and
// the link builder and its count-only pass (linkage.Build and
// CountPairs).
//
// The pattern: workers goroutines (the calling goroutine participates as
// one of them, so a Run costs workers−1 spawns) repeatedly claim
// fixed-size chunks [lo,hi) of the index range [0,n) off a shared atomic
// cursor. Compared with handing out one index per channel operation, a
// claim is a single atomic add amortized over chunk items, and a chunk
// with expensive items cannot stall a statically-assigned shard — the
// other workers simply claim past it. Because each worker writes only
// the output slots of the indices it claimed, any per-index computation
// run through this loop is byte-identical for every worker count by
// construction.
package chunkwork

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultChunk is the claim size used when the caller passes chunk <= 0.
// Large enough to amortize the atomic add, small enough that tail
// imbalance stays below a chunk per worker.
const DefaultChunk = 64

// Run executes worker(next) on `workers` goroutines (0 means
// GOMAXPROCS; the caller participates as one worker, matching the merge
// and labeling phases). Each invocation's next() claims the following
// chunk of [0,n): it returns lo < hi and ok=true until the range is
// drained, then ok=false forever. A worker typically allocates or
// fetches its scratch once, loops next(), and releases the scratch —
// the scratch-pooling shape the labeler and the neighbor queries share.
// Run returns when every worker has returned.
func Run(n, workers, chunk int, worker func(next func() (lo, hi int, ok bool))) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}

	var cursor atomic.Int64
	next := func() (int, int, bool) {
		lo := int(cursor.Add(int64(chunk))) - chunk
		if lo >= n {
			return 0, 0, false
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		return lo, hi, true
	}

	var wg sync.WaitGroup
	wg.Add(workers)
	body := func() {
		defer wg.Done()
		worker(next)
	}
	for w := 1; w < workers; w++ {
		go body()
	}
	body() // the coordinator participates
	wg.Wait()
}

// Rows runs fn(i) for every i in [0,n), claiming chunks off the shared
// cursor — the convenience form for loops without per-worker scratch.
func Rows(n, workers, chunk int, fn func(i int)) {
	Run(n, workers, chunk, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}
	})
}
