package zoo

import (
	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/stirr"
)

// KModesEngine adapts the baseline.KModes implementation (Huang 1998)
// to the Engine interface.
type KModesEngine struct {
	// Restarts keeps the lowest-cost of this many seeded runs; 0 runs
	// once. Passed through to baseline.KModesConfig.
	Restarts int
}

// Name implements Engine.
func (*KModesEngine) Name() string { return "k-modes" }

// Claims implements Engine: random mode initialization is
// seed-dependent; the implementation is single-threaded.
func (*KModesEngine) Claims() Claims {
	return Claims{SeedInvariant: false, WorkerInvariant: true, UsesK: true}
}

// Fit implements Engine.
func (e *KModesEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if _, err := clampK(cfg.K, d.Len()); err != nil {
		return nil, err
	}
	records, _ := recordsOf(d)
	km, err := baseline.KModes(records, baseline.KModesConfig{
		K: cfg.K, MaxIter: cfg.MaxIter, Seed: cfg.Seed, Restarts: e.Restarts,
	})
	if err != nil {
		return nil, err
	}
	res := canonicalize(km.Assign)
	res.Stats = Stats{Iters: km.Iters, Cost: float64(km.Cost)}
	return res, nil
}

// HierarchicalEngine adapts the baseline centroid-linkage agglomerative
// clusterer (the paper's "traditional hierarchical algorithm") to the
// Engine interface.
type HierarchicalEngine struct {
	// Linkage selects the cluster-distance rule; the zero value is
	// baseline.Centroid, the paper's comparator.
	Linkage baseline.Linkage
}

// Name implements Engine.
func (*HierarchicalEngine) Name() string { return "hierarchical" }

// Claims implements Engine: the agglomeration is exhaustive and
// tie-broken by index — no randomness, no workers.
func (*HierarchicalEngine) Claims() Claims {
	return Claims{SeedInvariant: true, WorkerInvariant: true, UsesK: true}
}

// Fit implements Engine.
func (e *HierarchicalEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	if _, err := clampK(cfg.K, d.Len()); err != nil {
		return nil, err
	}
	h, err := baseline.Hierarchical(d.Trans, baseline.HierarchicalConfig{K: cfg.K, Linkage: e.Linkage})
	if err != nil {
		return nil, err
	}
	res := canonicalize(h.Assign)
	res.Stats = Stats{Iters: 1}
	return res, nil
}

// STIRREngine adapts the revised (convergence-guaranteed) STIRR
// dynamical system to the Engine interface: the non-principal basin's
// sign read-out splits the records in two, so Config.K is ignored — the
// engine finds at most two clusters, as in the original read-out.
type STIRREngine struct {
	// Classic runs the original non-linear STIRR iteration instead of
	// the revised convergence-guaranteed linear system (the default,
	// and the ICDE 2000 paper's point).
	Classic bool
}

// Name implements Engine.
func (*STIRREngine) Name() string { return "stirr" }

// Claims implements Engine: basin initialization draws from the seeded
// RNG, so the converged non-principal basin (and with it the sign
// read-out) is seed-dependent; single-threaded.
func (*STIRREngine) Claims() Claims {
	return Claims{SeedInvariant: false, WorkerInvariant: true, UsesK: false}
}

// Fit implements Engine.
func (e *STIRREngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	n := d.Len()
	if _, err := clampK(cfg.K, n); err != nil {
		return nil, err
	}
	if n == 0 {
		return &Result{Assign: []int{}}, nil
	}
	records, width := recordsOf(d)
	if width == 0 {
		// No attributes: every record is identical — one cluster, the
		// same degenerate answer the other record engines give. stirr.Run
		// rejects nattrs <= 0 rather than divide by an empty node set.
		return canonicalize(make([]int, n)), nil
	}
	sr, err := stirr.Run(records, width, stirr.Config{
		Revised: !e.Classic, Iters: cfg.MaxIter, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	res := canonicalize(stirr.ClusterRecords(sr, records, 1))
	res.Stats = Stats{Iters: sr.Iters}
	return res, nil
}

// ROCKEngine adapts the repo's own pipeline to the Engine interface, so
// the conformance suite and the shootout run ROCK under exactly the
// same contract as its competitors.
type ROCKEngine struct {
	// Theta is the neighbor threshold; 0 selects 0.5.
	Theta float64
	// MinNeighbors and WeedAt pass through to core.Config; both default
	// off so the zoo partition stays total. Points ROCK still leaves
	// unclustered (e.g. unlabeled out-of-sample points under sampling)
	// are parked in singleton clusters to keep the contract.
	MinNeighbors int
	WeedAt       float64
}

// Name implements Engine.
func (*ROCKEngine) Name() string { return "rock" }

// Claims implements Engine: worker invariance is the core package's
// oracle-proven guarantee (every sharded phase is byte-identical to its
// serial form); sampling and labeling draw from the seeded RNG.
func (*ROCKEngine) Claims() Claims {
	return Claims{SeedInvariant: false, WorkerInvariant: true, UsesK: true}
}

// Fit implements Engine.
func (e *ROCKEngine) Fit(d *dataset.Dataset, cfg Config) (*Result, error) {
	if _, err := clampK(cfg.K, d.Len()); err != nil {
		return nil, err
	}
	theta := e.Theta
	if theta == 0 {
		theta = 0.5
	}
	cr, err := core.Cluster(d.Trans, core.Config{
		Theta: theta, K: cfg.K, Seed: cfg.Seed, Workers: cfg.Workers,
		SampleSize: cfg.SampleSize, MinNeighbors: e.MinNeighbors, WeedAt: e.WeedAt,
	})
	if err != nil {
		return nil, err
	}
	// canonicalize turns ROCK's -1 outliers into singleton clusters.
	res := canonicalize(cr.Assign)
	res.Stats = Stats{Iters: cr.Stats.Merges}
	return res, nil
}
