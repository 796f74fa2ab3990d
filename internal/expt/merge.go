package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// MergeBenchRow is one point of the agglomeration sweep: the map-based
// reference and the arena engine on the same prebuilt link table.
type MergeBenchRow struct {
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

// BenchMerge times the reference map-based agglomeration engine against
// the arena engine on basket workloads and writes the result as JSON —
// the perf trajectory record behind `rockbench -merge`. Output agreement
// between the engines is re-verified on each dataset before timing (the
// oracle test provides the byte-level guarantee; this is the belt to its
// suspenders).
func BenchMerge(w io.Writer, opts Options) error {
	ns := []int{2000, 5000, 10000}
	if opts.Quick {
		ns = []int{500, 1000}
	}
	theta := 0.6

	report := MergeBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"map is the reference engine (map[int]*clus, per-merge map rebuilds, one indexed heap per cluster); arena is the flat-slot engine with sorted link rows and a single lazy heap.",
			"times are best-of-3 seconds for the agglomeration phase alone, over a prebuilt CSR link table on the basket workload; speedup = map_sec / arena_sec.",
			"alloc counts are runtime.Mallocs deltas for one run of each engine; alloc_ratio = map_allocs / arena_allocs.",
			"both engines produce identical clusterings on every row (verified before timing); the engine oracle test enforces byte-identical output across configurations.",
		},
	}
	for _, n := range ns {
		k := n / 100
		if k < 2 {
			k = 2
		}
		d := synth.Basket(synth.BasketConfig{
			Transactions:    n,
			Clusters:        k,
			TemplateItems:   15,
			TransactionSize: 12,
			Seed:            opts.Seed + int64(n),
		})
		nb := similarity.ComputeIndexed(d.Trans, theta, similarity.Options{})
		lt := linkage.Build(nb, linkage.Options{})
		f := core.MarketBasketF(theta)

		mc, mm := core.BenchAgglomerateMap(n, lt, k, f)
		ac, am := core.BenchAgglomerateArena(n, lt, k, f)
		if mc != ac || mm != am {
			return fmt.Errorf("expt: engines disagree at n=%d (map %d/%d, arena %d/%d) — refusing to record timings", n, mc, mm, ac, am)
		}

		row := MergeBenchRow{
			N: n, K: k, Theta: theta,
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
