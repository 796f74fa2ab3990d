package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// MergeBenchRow is one point of the agglomeration sweep: the map-based
// reference and the arena engine on the same prebuilt link table.
type MergeBenchRow struct {
	// Shape names the input: "basket" (sparse link rows, a few links per
	// point) or "labeled" (dense planted-label rows, about n/4 neighbors
	// per point).
	Shape     string  `json:"shape"`
	N         int     `json:"n"`
	K         int     `json:"k"`
	Theta     float64 `json:"theta"`
	LinkPairs int     `json:"link_pairs"`
	Merges    int     `json:"merges"`
	Clusters  int     `json:"clusters"`
	// Timing: best of 3 runs over a prebuilt link table, so only the
	// agglomeration phase is measured.
	MapSec   float64 `json:"map_sec"`
	ArenaSec float64 `json:"arena_sec"`
	Speedup  float64 `json:"speedup"` // map_sec / arena_sec
	// Allocation counts for a single run of each engine (runtime.Mallocs
	// delta), and their ratio — the arena's headline win.
	MapAllocs   uint64  `json:"map_allocs"`
	ArenaAllocs uint64  `json:"arena_allocs"`
	AllocRatio  float64 `json:"alloc_ratio"` // map_allocs / arena_allocs
}

// MergeBenchReport is the BENCH_merge.json payload.
type MergeBenchReport struct {
	Host       string          `json:"host"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Quick      bool            `json:"quick"`
	Rows       []MergeBenchRow `json:"rows"`
	Notes      []string        `json:"notes"`
}

// mergeShape is one input of the merge sweep: a dataset, the θ its link
// table is built at, and the target cluster count.
type mergeShape struct {
	shape string
	d     *dataset.Dataset
	k     int
	theta float64
}

// mergeShapes lists the sweep's inputs: sparse basket workloads at
// growing n, and the zoo's dense `labeled` shape, where merged rows are
// long and most merges consume the cached best of most neighbors.
func mergeShapes(opts Options) []mergeShape {
	ns, labeledN := []int{2000, 5000, 10000}, 2000
	if opts.Quick {
		ns, labeledN = []int{500, 1000}, 400
	}
	var shapes []mergeShape
	for _, n := range ns {
		k := max(n/100, 2)
		shapes = append(shapes, mergeShape{shape: "basket", k: k, theta: 0.6, d: synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        k,
			TemplateItems:   15,
			TransactionSize: 12,
			Seed:            opts.Seed + int64(n),
		})})
	}
	shapes = append(shapes, mergeShape{shape: "labeled", k: 4, theta: 0.5, d: synth.Labeled(synth.LabeledConfig{
		Records: labeledN, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: opts.Seed + 1,
	})})
	return shapes
}

// BenchMerge times the reference map-based agglomeration engine against
// the arena engine on sparse basket and dense planted-label workloads and
// writes the result as JSON — the perf trajectory record behind
// `rockbench -merge`. Output agreement between the engines is re-verified
// on each dataset before timing (the oracle test provides the byte-level
// guarantee; this is the belt to its suspenders).
func BenchMerge(w io.Writer, opts Options) error {
	report := MergeBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"map is the reference engine (map[int]*clus, per-merge map rebuilds, one indexed heap per cluster, RockGoodness per candidate); arena is the flat-slot engine with sorted link rows, a cached best partner plus runner-up bound per slot, a single lazy heap, and the built-in goodness read from a per-run power table.",
			"shape basket: synth.Basket with n/100 templates of 15 items, 12 items a basket, θ=0.6, k=n/100 — sparse link rows. shape labeled: synth.Labeled with 4 classes, 10 attributes of 5 values, noise 0.1, θ=0.5, k=4 — the zoo's `labeled` workload, dense link rows.",
			"times are best-of-3 seconds for the agglomeration phase alone, over a prebuilt CSR link table; speedup = map_sec / arena_sec.",
			"alloc counts are runtime.Mallocs deltas for one run of each engine; alloc_ratio = map_allocs / arena_allocs.",
			"both engines produce identical clusterings on every row (verified before timing); the engine oracle test enforces byte-identical output across configurations.",
		},
	}
	for _, sh := range mergeShapes(opts) {
		n, k, theta := sh.d.Len(), sh.k, sh.theta
		nb := similarity.ComputeIndexed(sh.d.Trans, theta, similarity.Options{})
		lt := linkage.Build(nb, linkage.Options{})
		f := core.MarketBasketF(theta)

		mc, mm := core.BenchAgglomerateMap(n, lt, k, f)
		ac, am := core.BenchAgglomerateArena(n, lt, k, f)
		if mc != ac || mm != am {
			return fmt.Errorf("expt: engines disagree on %s n=%d (map %d/%d, arena %d/%d) — refusing to record timings", sh.shape, n, mc, mm, ac, am)
		}

		row := MergeBenchRow{
			Shape: sh.shape, N: n, K: k, Theta: theta,
			LinkPairs: lt.Pairs(),
			Merges:    am, Clusters: ac,
			MapSec:      bestOf(3, func() { core.BenchAgglomerateMap(n, lt, k, f) }),
			ArenaSec:    bestOf(3, func() { core.BenchAgglomerateArena(n, lt, k, f) }),
			MapAllocs:   mallocsOf(func() { core.BenchAgglomerateMap(n, lt, k, f) }),
			ArenaAllocs: mallocsOf(func() { core.BenchAgglomerateArena(n, lt, k, f) }),
		}
		row.Speedup = row.MapSec / row.ArenaSec
		if row.ArenaAllocs > 0 {
			row.AllocRatio = float64(row.MapAllocs) / float64(row.ArenaAllocs)
		}
		report.Rows = append(report.Rows, row)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding merge bench report: %w", err)
	}
	return nil
}

// mallocsOf counts heap allocations performed by one call of f.
func mallocsOf(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
