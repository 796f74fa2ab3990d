package core

import (
	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
)

// Parallel labeling.
//
// Candidates are independent: each one's assignment reads only the
// immutable index and writes its own slot of the output, so sharding
// them across workers cannot reorder or change anything — output is
// byte-identical for every worker count by construction, with no
// validation machinery needed.
// Workers claim fixed-size chunks off an atomic cursor (the shared
// chunkwork.Run loop), so a candidate with an expensive neighborhood
// doesn't stall a whole static shard. The pipeline's labelCandidates and
// Model.AssignBatch both run this loop over the same labeler.

// labelChunk is the unit of work a worker claims at a time.
const labelChunk = 64

// run labels every candidate, returning the chosen cluster index (or -1)
// per candidate in candidate order. workers 0 = GOMAXPROCS.
func (lb *labeler) run(candidates []int, workers int) []int {
	return lb.runEach(len(candidates), func(i int) dataset.Transaction { return lb.ts[candidates[i]] },
		workers, lb.newScratch, func(*labelScratch) {})
}

// runEach is the sharded assignment loop shared by the labeling phase
// and Model.AssignBatch: query i's transaction comes from at(i), its
// assignment lands in slot i of the result. get/put bracket each
// worker's scratch (the model routes them through its pool; the
// pipeline allocates fresh per worker). The loop is chunkwork.Run, the
// claim loop shared with the neighbor and link phases, which runs one
// chunk, or one worker, inline on the caller. The output is
// byte-identical at every worker count, queries being independent.
func (lb *labeler) runEach(n int, at func(int) dataset.Transaction, workers int, get func() *labelScratch, put func(*labelScratch)) []int {
	out := make([]int, n)
	chunkwork.Run(n, workers, labelChunk, func(next func() (int, int, bool)) {
		sc := get()
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				out[i] = lb.label(at(i), sc)
			}
		}
		put(sc)
	})
	return out
}

// labelCandidates is the phase-6 entry point: builds the labeler over
// the sets and shards the candidates per the config. cfg must already
// carry defaults.
func labelCandidates(ts []dataset.Transaction, candidates []int, sets [][]int, cfg Config) []int {
	return newLabeler(ts, sets, cfg.Theta, cfg.fval(), cfg.Measure).run(candidates, cfg.Workers)
}
