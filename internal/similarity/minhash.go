package similarity

import (
	"math/rand"
	"slices"
	"sync"

	"github.com/rockclust/rock/internal/chunkwork"
	"github.com/rockclust/rock/internal/dataset"
)

// This file is the production MinHash/LSH neighbor pipeline: a
// high-throughput, sort-based, sharded rewrite of the prototype kept in
// test code (minhash_reference_test.go). Both share the hash family, the
// band-key function, and the option defaulting below, and the oracle
// test proves their outputs byte-identical — the rewrite changes
// constant factors only:
//
//   - signatures are computed with per-worker pooled scratch over
//     chunked atomic-cursor claims (chunkwork.Run, the labeler's
//     pattern) and immediately folded into band keys, so no n×Hashes
//     signature matrix is ever materialized;
//   - candidate generation replaces the serial per-band
//     map[uint64][]int32 buckets and the n allocation-heavy
//     map[int32]struct{} candidate sets with packed (bandKey, id)
//     entries sorted per band and packed (i,j) pairs deduplicated by a
//     global sort-unique;
//   - exact verification goes through the counted forms
//     (similarity.Counted) — one sorted-list intersection per unique
//     unordered pair instead of two Measure closure calls per directed
//     candidate.

// LSHOptions configure approximate neighbor computation via MinHash
// signatures with banded locality-sensitive hashing. Candidate pairs are
// verified with the exact measure, so the output has no false positives —
// only (tunably rare) false negatives.
type LSHOptions struct {
	// Hashes is the signature length (default 96). More hashes sharpen
	// the band probabilities. Hashes is rounded up to the next multiple
	// of Bands so that every signature row participates in exactly one
	// band (the defaulting rule below).
	Hashes int
	// Bands divides the signature into Bands groups of Hashes/Bands rows
	// (default 24). Two transactions become candidates when any band of
	// their signatures matches exactly. The probability a pair with
	// Jaccard s becomes a candidate is 1 − (1 − s^(Hashes/Bands))^Bands —
	// an S-curve whose threshold sits near (1/Bands)^(Bands/Hashes).
	Bands int
	// Seed drives the hash functions; fixed seed ⇒ deterministic output.
	Seed int64
	// Measure and IncludeSelf mirror Options; the measure is used for the
	// exact verification of candidates (nil = Jaccard).
	Measure     Measure
	IncludeSelf bool
	// Workers bounds parallelism; 0 means GOMAXPROCS. Neighbor lists are
	// byte-identical for every worker count.
	Workers int
	// RecallSample sets how many rows the pipeline samples to estimate
	// edge recall against an exact computation (the quality ledger in
	// LSHStats). 0 means DefaultRecallSample; negative disables the
	// estimate. Sampling is deterministic under Seed and does not affect
	// the neighbor lists.
	RecallSample int
}

// DefaultRecallSample is the number of rows sampled for the recall
// estimate when LSHOptions.RecallSample is zero. The estimate queries an
// Index, which answers the built-in measures from item postings, so its
// cost is a few postings queries — negligible next to the pipeline
// itself.
const DefaultRecallSample = 64

// withDefaults resolves the banding parameters. The rule: Bands is
// clamped to [1, Hashes], then Hashes is rounded UP to the next multiple
// of Bands. Rounding up (rather than truncating Hashes/Bands) means a
// requested signature length is never silently weakened: every signature
// row lands in exactly one band of equal width. The historical prototype
// silently dropped the trailing Hashes mod Bands rows; both
// implementations now share this resolution, so the oracle covers uneven
// requests too.
func (o LSHOptions) withDefaults() LSHOptions {
	if o.Hashes <= 0 {
		o.Hashes = 96
	}
	if o.Bands <= 0 {
		o.Bands = 24
	}
	if o.Bands > o.Hashes {
		o.Bands = o.Hashes
	}
	if rem := o.Hashes % o.Bands; rem != 0 {
		o.Hashes += o.Bands - rem
	}
	return o
}

func (o LSHOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return defaultWorkers()
}

// LSHStats is the quality ledger of one ComputeLSH run: how many
// candidates banding generated, how many survived exact verification,
// and a sampled estimate of edge recall against the exact neighbor
// relation.
type LSHStats struct {
	// Hashes and Bands are the resolved banding parameters (after the
	// rounding rule of LSHOptions).
	Hashes int
	Bands  int
	// CandidatePairs counts the unique unordered pairs that shared at
	// least one band key — the work the exact verifier had to do.
	CandidatePairs int64
	// VerifiedEdges counts the candidate pairs whose exact similarity
	// passed θ in at least one direction (for the built-in symmetric
	// measures: the undirected edges of the output graph).
	VerifiedEdges int64
	// RecallSampled is the number of rows the recall estimate visited
	// (0 = estimate disabled).
	RecallSampled int
	// Recall estimates edge recall: over the sampled rows, the fraction
	// of exact θ-neighbors the pipeline found. 1 when the sample
	// contained no exact edges.
	Recall float64
}

// lshPrime is the modulus of the hash family h_k(x) = (a_k·x + b_k) mod p.
const lshPrime = uint64(4294967311)

// lshHashFamily draws the hash family deterministically from the seed.
// Both LSH implementations call this with the same seed and hash count,
// so their signatures are identical by construction. Callers that draw
// further values from the returned rng (the recall sampler) do so after
// the family, leaving the family unchanged.
func lshHashFamily(seed int64, hashes int) (as, bs []uint64, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	as = make([]uint64, hashes)
	bs = make([]uint64, hashes)
	for k := range as {
		as[k] = uint64(rng.Int63n(int64(lshPrime-2))) + 1
		bs[k] = uint64(rng.Int63n(int64(lshPrime - 1)))
	}
	return as, bs, rng
}

// minhashSig fills sig with the MinHash signature of t: sig[k] is the
// minimum of h_k over t's items (the sentinel 2³¹… for empty t, as in
// the prototype).
func minhashSig(t dataset.Transaction, as, bs []uint64, sig []uint32) {
	for k := range sig {
		min := uint64(1<<63 - 1)
		for _, it := range t {
			if h := (as[k]*uint64(it) + bs[k]) % lshPrime; h < min {
				min = h
			}
		}
		sig[k] = uint32(min)
	}
}

// bandKey hashes one band's signature rows (FNV-1a over the row values).
func bandKey(rows []uint32) uint64 {
	key := uint64(14695981039346656037)
	for _, r := range rows {
		key ^= uint64(r)
		key *= 1099511628211
	}
	return key
}

// bandEntry is one (bandKey, id) pair of the candidate-generation sort.
type bandEntry struct {
	key uint64
	id  int32
}

// pairBuf accumulates packed (i,j) candidate pairs (i<j, i in the high
// word) with amortized sort-unique compaction: bands re-discover the
// same similar pair many times, and compacting whenever the buffer
// doubles keeps memory near the number of UNIQUE pairs instead of the
// number of emissions, at the cost of a constant factor in sorting.
type pairBuf struct {
	pairs     []uint64
	compactAt int
}

const pairBufMinCompact = 1 << 20

func (b *pairBuf) add(p uint64) {
	b.pairs = append(b.pairs, p)
	if b.compactAt == 0 {
		b.compactAt = pairBufMinCompact
	}
	if len(b.pairs) >= b.compactAt {
		b.compact()
	}
}

func (b *pairBuf) compact() {
	slices.Sort(b.pairs)
	b.pairs = slices.Compact(b.pairs)
	b.compactAt = 2 * len(b.pairs)
	if b.compactAt < pairBufMinCompact {
		b.compactAt = pairBufMinCompact
	}
}

// mergeUniqueRuns merges sorted, internally-unique runs into one sorted
// unique slice. The run count is at most the worker count, so a simple
// scan over the heads is cheaper than heap machinery.
func mergeUniqueRuns(runs [][]uint64) []uint64 {
	runs = slices.DeleteFunc(runs, func(r []uint64) bool { return len(r) == 0 })
	if len(runs) == 0 {
		return nil
	}
	if len(runs) == 1 {
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]uint64, 0, total)
	heads := make([]int, len(runs))
	for {
		best := -1
		var min uint64
		for r, h := range heads {
			if h >= len(runs[r]) {
				continue
			}
			if v := runs[r][h]; best < 0 || v < min {
				best, min = r, v
			}
		}
		if best < 0 {
			return out
		}
		if len(out) == 0 || out[len(out)-1] != min {
			out = append(out, min)
		}
		for r := range runs {
			if h := heads[r]; h < len(runs[r]) && runs[r][h] == min {
				heads[r]++
			}
		}
	}
}

// ComputeLSH builds approximate θ-neighbor lists: MinHash signatures,
// banded bucketing to generate candidate pairs, exact verification of
// every candidate. For θ well above the band threshold the recall is
// near 1 while the candidate set stays near-linear. The exact index
// (ComputeIndexed) is faster wherever its prefix probe prunes well; on
// hub-heavy baskets LSH is measured ahead only at low θ and large n
// (BENCH_neighbors.json).
//
// The pipeline is sort-based and sharded (see the file comment); its
// output is byte-identical to the prototype in the oracle test for
// every worker count, and nb.LSH carries the run's quality ledger.
func ComputeLSH(ts []dataset.Transaction, theta float64, opts LSHOptions) *Neighbors {
	opts = opts.withDefaults()
	n := len(ts)
	nb := &Neighbors{
		Lists: make([][]int32, n),
		LSH:   &LSHStats{Hashes: opts.Hashes, Bands: opts.Bands, Recall: 1},
	}
	if n == 0 {
		return nb
	}
	workers := opts.workers()
	bands := opts.Bands
	rowsPerBand := opts.Hashes / opts.Bands
	as, bs, rng := lshHashFamily(opts.Seed, opts.Hashes)

	// Stage 1: band keys. Each worker claims chunks of points, computes
	// the signature into its pooled scratch, and folds it into the
	// point's Bands keys — the full signature matrix never exists.
	keys := make([]uint64, n*bands)
	chunkwork.Run(n, workers, 64, func(next func() (int, int, bool)) {
		sig := make([]uint32, opts.Hashes) // per-worker scratch
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for i := lo; i < hi; i++ {
				minhashSig(ts[i], as, bs, sig)
				for b := 0; b < bands; b++ {
					keys[i*bands+b] = bandKey(sig[b*rowsPerBand : (b+1)*rowsPerBand])
				}
			}
		}
	})

	// Stage 2: candidate pairs. Workers claim bands; within a band the
	// (key, id) entries are sorted and each equal-key run emits its
	// packed pairs. Empty transactions hash to the sentinel signature
	// and are excluded, as in the reference.
	var (
		runsMu sync.Mutex
		runs   [][]uint64
	)
	chunkwork.Run(bands, workers, 1, func(next func() (int, int, bool)) {
		entries := make([]bandEntry, 0, n) // per-worker scratch, reused across bands
		var buf pairBuf
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for b := lo; b < hi; b++ {
				entries = entries[:0]
				for i := 0; i < n; i++ {
					if len(ts[i]) == 0 {
						continue
					}
					entries = append(entries, bandEntry{keys[i*bands+b], int32(i)})
				}
				slices.SortFunc(entries, func(x, y bandEntry) int {
					switch {
					case x.key < y.key:
						return -1
					case x.key > y.key:
						return 1
					case x.id < y.id:
						return -1
					case x.id > y.id:
						return 1
					}
					return 0
				})
				for s := 0; s < len(entries); {
					e := s + 1
					for e < len(entries) && entries[e].key == entries[s].key {
						e++
					}
					for x := s; x < e; x++ {
						for y := x + 1; y < e; y++ {
							buf.add(uint64(uint32(entries[x].id))<<32 | uint64(uint32(entries[y].id)))
						}
					}
					s = e
				}
			}
		}
		buf.compact()
		runsMu.Lock()
		runs = append(runs, buf.pairs)
		runsMu.Unlock()
	})
	pairs := mergeUniqueRuns(runs)
	nb.LSH.CandidatePairs = int64(len(pairs))

	// Stage 3: exact verification through the counted forms. One sorted
	// intersection per unique unordered pair; bit 0 records i→j passing,
	// bit 1 records j→i (they differ only for custom asymmetric
	// measures, where the reference also evaluated both directions).
	cm := Counted(opts.Measure)
	sim := Options{Measure: opts.Measure}.measure()
	bits := make([]uint8, len(pairs))
	chunkwork.Run(len(pairs), workers, 512, func(next func() (int, int, bool)) {
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for p := lo; p < hi; p++ {
				i := int(pairs[p] >> 32)
				j := int(uint32(pairs[p]))
				if cm != nil {
					if cm(ts[i].IntersectSize(ts[j]), len(ts[i]), len(ts[j])) >= theta {
						bits[p] = 3
					}
					continue
				}
				var b uint8
				if sim(ts[i], ts[j]) >= theta {
					b |= 1
				}
				if sim(ts[j], ts[i]) >= theta {
					b |= 2
				}
				bits[p] = b
			}
		}
	})

	// Self-edges mirror the reference: with IncludeSelf, point i is its
	// own neighbor whenever sim(i,i) ≥ θ (false for empty transactions
	// under the built-ins unless θ ≤ 0).
	var self []bool
	if opts.IncludeSelf {
		self = make([]bool, n)
		chunkwork.Rows(n, workers, 256, func(i int) {
			if cm != nil {
				self[i] = cm(len(ts[i]), len(ts[i]), len(ts[i])) >= theta
			} else {
				self[i] = sim(ts[i], ts[i]) >= theta
			}
		})
	}

	// Stage 4: assemble the lists in one arena. Pairs are sorted by
	// (i,j), so for a given row r the reverse entries (i<r) arrive
	// ascending while iterating groups before r, the forward entries
	// (j>r) ascending within group r, and the self entry sits exactly
	// between — each row is sorted without any per-row sort.
	rowLen := make([]int32, n)
	revDeg := make([]int32, n)
	var verified int64
	for p, b := range bits {
		if b == 0 {
			continue
		}
		verified++
		i := pairs[p] >> 32
		j := uint32(pairs[p])
		if b&1 != 0 {
			rowLen[i]++
		}
		if b&2 != 0 {
			rowLen[j]++
			revDeg[j]++
		}
	}
	nb.LSH.VerifiedEdges = verified
	rowStart := make([]int64, n+1)
	for i := 0; i < n; i++ {
		l := int64(rowLen[i])
		if self != nil && self[i] {
			l++
		}
		rowStart[i+1] = rowStart[i] + l
	}
	arena := make([]int32, rowStart[n])
	fwdPos := make([]int64, n)
	revPos := make([]int64, n)
	for r := 0; r < n; r++ {
		revPos[r] = rowStart[r]
		base := rowStart[r] + int64(revDeg[r])
		if self != nil && self[r] {
			arena[base] = int32(r)
			base++
		}
		fwdPos[r] = base
	}
	for p, b := range bits {
		if b == 0 {
			continue
		}
		i := int32(pairs[p] >> 32)
		j := int32(uint32(pairs[p]))
		if b&1 != 0 {
			arena[fwdPos[i]] = j
			fwdPos[i]++
		}
		if b&2 != 0 {
			arena[revPos[j]] = i
			revPos[j]++
		}
	}
	for i := 0; i < n; i++ {
		if row := arena[rowStart[i]:rowStart[i+1]]; len(row) > 0 {
			nb.Lists[i] = row
		}
	}

	lshSampledRecall(ts, theta, opts, nb, rng)
	return nb
}

// lshSampledRecall estimates edge recall on a deterministic sample of
// rows: each sampled row's exact θ-neighbors come from an Index query and
// are checked against the approximate lists. The rng continues the
// hash-family stream, so the sample depends only on Seed.
func lshSampledRecall(ts []dataset.Transaction, theta float64, opts LSHOptions, nb *Neighbors, rng *rand.Rand) {
	if opts.RecallSample < 0 {
		return
	}
	n := len(ts)
	size := opts.RecallSample
	if size == 0 {
		size = DefaultRecallSample
	}
	if size > n {
		size = n
	}
	sample := rng.Perm(n)[:size]
	nb.LSH.RecallSampled = size

	ix := NewIndex(ts, theta, opts.Measure)
	var mu sync.Mutex
	var exactTotal, hitTotal int64
	chunkwork.Run(size, opts.workers(), 4, func(next func() (int, int, bool)) {
		sc := ix.NewScratch()
		var row []int32
		var exact, hit int64
		for lo, hi, ok := next(); ok; lo, hi, ok = next() {
			for s := lo; s < hi; s++ {
				i := sample[s]
				row = ix.Query(ts[i], sc, row[:0])
				for _, j := range row {
					if int(j) == i {
						continue
					}
					exact++
					if nb.Contains(i, j) {
						hit++
					}
				}
			}
		}
		mu.Lock()
		exactTotal += exact
		hitTotal += hit
		mu.Unlock()
	})
	if exactTotal > 0 {
		nb.LSH.Recall = float64(hitTotal) / float64(exactTotal)
	}
}
