package zoo

import (
	"math"
	"math/rand"
	"sort"

	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/dataset"
)

// COOLCATEngine implements COOLCAT (Barbara, Li, Couto; CIKM 2002):
// entropy-based clustering of categorical records with the same
// sample-then-assign shape as ROCK's labeling phase. A seeded sample is
// scanned for k maximally-distant seed records (farthest-first on the
// simple-matching distance, which is monotone in the two-record cluster
// entropy COOLCAT maximizes), then every remaining record joins the
// cluster whose expected entropy Σ_i |C_i|·H(C_i) grows least. With
// BatchSize > 0 the paper's re-processing step runs: after each batch,
// the worst-fitting fraction of the batch is removed and re-placed.
//
// Ties break toward the lower cluster index and lower record index, so
// a run is deterministic given Config.Seed.
type COOLCATEngine struct {
	// BatchSize enables COOLCAT's re-processing pass: after every
	// BatchSize placements the worst-fitting RefitFraction of the batch
	// is removed and re-placed. 0 disables re-processing.
	BatchSize int
	// RefitFraction is the fraction of each batch re-placed; 0 selects
	// the default 0.2. Ignored when BatchSize is 0.
	RefitFraction float64
}

// Name implements Engine.
func (*COOLCATEngine) Name() string { return "coolcat" }

// Claims implements Engine: seeded sampling makes the partition
// seed-dependent; the engine is single-threaded, hence trivially
// worker-invariant.
func (*COOLCATEngine) Claims() Claims {
	return Claims{SeedInvariant: false, WorkerInvariant: true, UsesK: true}
}

// coolcatState carries the per-cluster attribute-value counts plus the
// cached Σ_v c·ln(c) per (cluster, attribute) that makes the expected
// entropy delta of a placement O(width).
type coolcatState struct {
	width  int
	counts []map[string]int // cluster*width + attr
	slnl   []float64        // Σ_v count·ln(count) per cluster*width+attr
	sizes  []int
}

// xlnx returns x·ln(x) with the 0·ln 0 = 0 convention.
func xlnx(x int) float64 {
	if x <= 0 {
		return 0
	}
	return float64(x) * math.Log(float64(x))
}

func newCoolcatState(k, width int) *coolcatState {
	st := &coolcatState{
		width:  width,
		counts: make([]map[string]int, k*width),
		slnl:   make([]float64, k*width),
		sizes:  make([]int, k),
	}
	for i := range st.counts {
		st.counts[i] = map[string]int{}
	}
	return st
}

// deltaEntropy returns the increase of |C|·H(C) from adding rec to
// cluster c. Per attribute a with current value count cv and cluster
// size s, the increase is (s+1)ln(s+1) − s·ln s − ((cv+1)ln(cv+1) −
// cv·ln cv), summed over attributes — an O(width) exact evaluation.
func (st *coolcatState) deltaEntropy(c int, rec dataset.Record) float64 {
	s := st.sizes[c]
	sizeTerm := xlnx(s+1) - xlnx(s)
	d := 0.0
	for a := 0; a < st.width; a++ {
		cv := st.counts[c*st.width+a][recVal(rec, a)]
		d += sizeTerm - (xlnx(cv+1) - xlnx(cv))
	}
	return d
}

// recVal reads attribute a of a possibly short record.
func recVal(rec dataset.Record, a int) string {
	if a < len(rec) {
		return rec[a]
	}
	return ""
}

func (st *coolcatState) add(c int, rec dataset.Record) {
	for a := 0; a < st.width; a++ {
		m := st.counts[c*st.width+a]
		v := recVal(rec, a)
		st.slnl[c*st.width+a] += xlnx(m[v]+1) - xlnx(m[v])
		m[v]++
	}
	st.sizes[c]++
}

func (st *coolcatState) remove(c int, rec dataset.Record) {
	for a := 0; a < st.width; a++ {
		m := st.counts[c*st.width+a]
		v := recVal(rec, a)
		st.slnl[c*st.width+a] += xlnx(m[v]-1) - xlnx(m[v])
		m[v]--
		if m[v] == 0 {
			delete(m, v)
		}
	}
	st.sizes[c]--
}

// logFit scores how well rec fits its cluster c: Σ_a ln p_a(rec[a])
// over the cluster's value frequencies (counts include rec itself).
// Higher is better; COOLCAT re-places the lowest scorers.
func (st *coolcatState) logFit(c int, rec dataset.Record) float64 {
	s := st.sizes[c]
	if s == 0 {
		return math.Inf(-1)
	}
	f := 0.0
	for a := 0; a < st.width; a++ {
		cv := st.counts[c*st.width+a][recVal(rec, a)]
		if cv == 0 {
			return math.Inf(-1)
		}
		f += math.Log(float64(cv) / float64(s))
	}
	return f
}

// entropyCost is the COOLCAT objective Σ_c |C_c|·H(C_c) at the current
// state, using |C|·H(C) = Σ_a (|C|·ln|C| − Σ_v c_v·ln c_v).
func (st *coolcatState) entropyCost() float64 {
	total := 0.0
	k := len(st.sizes)
	for c := 0; c < k; c++ {
		for a := 0; a < st.width; a++ {
			total += xlnx(st.sizes[c]) - st.slnl[c*st.width+a]
		}
	}
	return total
}

// place assigns rec to the cluster with the least expected-entropy
// increase, ties toward the lower cluster index, and updates the state.
func (st *coolcatState) place(rec dataset.Record) int {
	best, bestD := 0, math.Inf(1)
	for c := range st.sizes {
		if d := st.deltaEntropy(c, rec); d < bestD {
			best, bestD = c, d
		}
	}
	st.add(best, rec)
	return best
}

// Fit implements Engine.
func (e *COOLCATEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	records, width := baseline.RecordsOf(d), len(d.Attrs)
	n := len(records)
	k, err := clampK(cfg.K, n)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{Assign: []int{}}, nil
	}

	// Sample, then pick maximally-distant seeds within it.
	s := cfg.SampleSize
	if s <= 0 {
		s = 20 * k
		if s < 100 {
			s = 100
		}
	}
	if s > n {
		s = n
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	sampleIdx := rng.Perm(n)[:s]
	sort.Ints(sampleIdx)
	seeds := coolcatSeeds(records, sampleIdx, k)
	k = len(seeds)

	st := newCoolcatState(k, width)
	assign := make([]int, n)
	isSeed := make(map[int]bool, k)
	for c, p := range seeds {
		isSeed[p] = true
		assign[p] = c
		st.add(c, records[p])
	}

	refitFrac := e.RefitFraction
	if refitFrac <= 0 {
		refitFrac = 0.2
	}
	var batch []int
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// Re-process the worst-fitting fraction of the batch: remove
		// them (in score order, worst first; index breaks ties) and
		// re-place in record order.
		scored := make([]int, len(batch))
		copy(scored, batch)
		sort.SliceStable(scored, func(i, j int) bool {
			fi, fj := st.logFit(assign[scored[i]], records[scored[i]]), st.logFit(assign[scored[j]], records[scored[j]])
			if fi != fj {
				return fi < fj
			}
			return scored[i] < scored[j]
		})
		m := int(math.Ceil(refitFrac * float64(len(batch))))
		redo := scored[:m]
		for _, p := range redo {
			st.remove(assign[p], records[p])
		}
		sort.Ints(redo)
		for _, p := range redo {
			assign[p] = st.place(records[p])
		}
		batch = batch[:0]
	}

	for p := 0; p < n; p++ {
		if isSeed[p] {
			continue
		}
		assign[p] = st.place(records[p])
		if e.BatchSize > 0 {
			batch = append(batch, p)
			if len(batch) >= e.BatchSize {
				flush()
			}
		}
	}
	flush()

	res := canonicalize(assign)
	res.Stats = Stats{Iters: 1, Cost: st.entropyCost()}
	return res, nil
}

// coolcatSeeds picks up to k maximally-distant sample records by
// farthest-first traversal on the simple-matching distance, starting
// from the most distant pair. It stops early when every remaining
// candidate duplicates a chosen seed (distance 0), so degenerate inputs
// yield fewer clusters instead of empty ones.
func coolcatSeeds(records []dataset.Record, sampleIdx []int, k int) []int {
	if k <= 1 || len(sampleIdx) == 1 {
		return sampleIdx[:1]
	}
	bi, bj, bestD := sampleIdx[0], -1, -1
	for x := 0; x < len(sampleIdx); x++ {
		for y := x + 1; y < len(sampleIdx); y++ {
			if d := recMismatch(records[sampleIdx[x]], records[sampleIdx[y]]); d > bestD {
				bi, bj, bestD = sampleIdx[x], sampleIdx[y], d
			}
		}
	}
	if bestD <= 0 {
		return []int{bi} // all sample records identical
	}
	seeds := []int{bi, bj}
	minDist := make(map[int]int, len(sampleIdx))
	for _, p := range sampleIdx {
		di, dj := recMismatch(records[p], records[bi]), recMismatch(records[p], records[bj])
		if dj < di {
			di = dj
		}
		minDist[p] = di
	}
	for len(seeds) < k {
		next, nextD := -1, 0
		for _, p := range sampleIdx {
			if d := minDist[p]; d > nextD || (d == nextD && d > 0 && (next < 0 || p < next)) {
				next, nextD = p, d
			}
		}
		if next < 0 || nextD == 0 {
			break // only duplicates of existing seeds remain
		}
		seeds = append(seeds, next)
		for _, p := range sampleIdx {
			if d := recMismatch(records[p], records[next]); d < minDist[p] {
				minDist[p] = d
			}
		}
	}
	sort.Ints(seeds)
	return seeds
}

// recMismatch counts attributes on which two records differ, padding
// short records with empty values.
func recMismatch(a, b dataset.Record) int {
	w := len(a)
	if len(b) > w {
		w = len(b)
	}
	d := 0
	for i := 0; i < w; i++ {
		if recVal(a, i) != recVal(b, i) {
			d++
		}
	}
	return d
}
