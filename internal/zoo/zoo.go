// Package zoo collects the categorical-clustering algorithms that ROCK
// is measured against behind one Engine interface: the three new
// first-class engines of the "algorithm zoo" roadmap item — COOLCAT
// (entropy-based sample-then-assign), Squeezer (single-pass streaming),
// and k-histograms (k-modes with attribute-value histograms as centers)
// — together with adapters for the existing k-modes, hierarchical and
// STIRR baselines and for ROCK itself.
//
// The interface contract is deliberately strict so that one conformance
// suite (conformance_test.go) can prove every implementation at once:
//
//   - Fit returns a total partition: every input point lies in exactly
//     one cluster, cluster ids are dense (0..K-1), members are listed
//     ascending, and clusters are ordered by their smallest member.
//     Engines whose native output has outliers (ROCK) park them in
//     singleton clusters; Check verifies the canonical form.
//   - Fit is deterministic: the same dataset and Config always produce
//     the identical partition.
//   - Engines declare their invariances through Claims — seed
//     invariance, worker invariance, whether Config.K is honored — and
//     the conformance suite enforces exactly what is claimed.
//
// Record-based engines (COOLCAT, Squeezer, k-histograms, k-modes,
// STIRR) view the dataset through dataset.DecodeRecord, so a dataset
// built with dataset.EncodeRecords round-trips to its original records;
// datasets without attribute metadata decode to zero-width records,
// which such engines treat as all-identical. Transaction-based engines
// (hierarchical, ROCK) consume Dataset.Trans directly.
package zoo

import (
	"fmt"
	"sort"

	"github.com/rockclust/rock/internal/dataset"
)

// Config is the shared parameterization every engine accepts. Engines
// ignore knobs that do not apply to them (Claims documents which).
type Config struct {
	// K is the target cluster count. Engines that derive their cluster
	// count themselves (Squeezer's threshold test, STIRR's two-basin
	// read-out) ignore it; Claims.UsesK says which. Must be >= 1.
	K int
	// Seed drives every randomized step (sampling, seeding). Engines
	// claiming SeedInvariant produce the same partition for every seed.
	Seed int64
	// Workers bounds parallelism where an engine supports it (the ROCK
	// adapter). Engines claiming WorkerInvariant produce the identical
	// partition for every worker count.
	Workers int
	// MaxIter bounds iterative engines (k-modes, k-histograms, STIRR);
	// 0 selects the engine default (100).
	MaxIter int
	// Threshold is Squeezer's admission threshold: the minimum
	// per-attribute average support, in [0,1], for a record to join an
	// existing cluster. 0 selects the default 0.5.
	Threshold float64
	// SampleSize overrides COOLCAT's clustering sample size (and the
	// ROCK adapter's Config.SampleSize). 0 selects the engine default
	// (COOLCAT: min(n, max(100, 20·K)); ROCK: no sampling).
	SampleSize int
}

// withDefaults resolves the defaulted knobs.
func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.5
	}
	return c
}

// Claims declares the invariances an engine guarantees. The conformance
// suite enforces exactly what is claimed — an engine must not claim an
// invariance it cannot prove, and every engine must be deterministic.
type Claims struct {
	// SeedInvariant: the partition does not depend on Config.Seed.
	SeedInvariant bool
	// WorkerInvariant: the partition does not depend on Config.Workers.
	WorkerInvariant bool
	// UsesK: the engine honors Config.K as its target cluster count
	// (it may still return fewer clusters on degenerate inputs).
	UsesK bool
}

// Stats reports what happened during a Fit.
type Stats struct {
	// Iters is the number of iterations an iterative engine ran (1 for
	// single-pass engines).
	Iters int
	// Cost is the engine's own objective at the returned partition:
	// total mismatch cost for k-modes, Σ|C|·H(C) expected entropy for
	// COOLCAT, total histogram distance for k-histograms; 0 when the
	// engine defines no scalar objective.
	Cost float64
}

// Result is a flat clustering in the canonical zoo form (see Check).
type Result struct {
	// Assign maps each input index to its cluster in Clusters.
	Assign []int
	// Clusters lists member input indices ascending; clusters are
	// ordered by smallest member.
	Clusters [][]int
	Stats    Stats
}

// K returns the number of clusters found.
func (r *Result) K() int { return len(r.Clusters) }

// Engine is one categorical clustering algorithm. Implementations must
// satisfy the contract in the package comment; the conformance suite
// runs every registered engine against it.
type Engine interface {
	// Name identifies the engine in reports and the registry.
	Name() string
	// Claims declares the engine's invariances.
	Claims() Claims
	// Fit clusters the dataset. The returned partition is total and
	// canonical (Check passes), and identical for identical inputs.
	Fit(d *dataset.Dataset, cfg Config) (*Result, error)
}

// registry holds the default-configured engine instances, sorted by
// name. Register panics on duplicates: engine names key bench rows and
// conformance subtests.
var registry []Engine

// Register adds an engine to the global registry.
func Register(e Engine) {
	for _, have := range registry {
		if have.Name() == e.Name() {
			panic(fmt.Sprintf("zoo: duplicate engine %q", e.Name()))
		}
	}
	registry = append(registry, e)
	sort.Slice(registry, func(i, j int) bool { return registry[i].Name() < registry[j].Name() })
}

// Engines returns the registered engines sorted by name.
func Engines() []Engine {
	out := make([]Engine, len(registry))
	copy(out, registry)
	return out
}

// ByName looks an engine up in the registry.
func ByName(name string) (Engine, bool) {
	for _, e := range registry {
		if e.Name() == name {
			return e, true
		}
	}
	return nil, false
}

func init() {
	Register(&COOLCATEngine{})
	Register(&SqueezerEngine{})
	Register(&KHistogramsEngine{})
	Register(&KModesEngine{})
	Register(&HierarchicalEngine{})
	Register(&STIRREngine{})
	Register(&ROCKEngine{})
}

// Check validates the canonical partition form for n input points:
// every point in exactly one cluster, dense cluster ids, ascending
// members, clusters ordered by first member, Assign consistent with
// Clusters. It is the validity oracle of the conformance suite.
func Check(r *Result, n int) error {
	if r == nil {
		return fmt.Errorf("zoo: nil result")
	}
	if len(r.Assign) != n {
		return fmt.Errorf("zoo: %d assignments for %d points", len(r.Assign), n)
	}
	seen := make([]bool, n)
	prevFirst := -1
	for ci, members := range r.Clusters {
		if len(members) == 0 {
			return fmt.Errorf("zoo: cluster %d is empty", ci)
		}
		if members[0] <= prevFirst {
			return fmt.Errorf("zoo: cluster %d out of order (first member %d after %d)", ci, members[0], prevFirst)
		}
		prevFirst = members[0]
		last := -1
		for _, p := range members {
			if p < 0 || p >= n {
				return fmt.Errorf("zoo: cluster %d has out-of-range member %d", ci, p)
			}
			if p <= last {
				return fmt.Errorf("zoo: cluster %d members not strictly ascending at %d", ci, p)
			}
			last = p
			if seen[p] {
				return fmt.Errorf("zoo: point %d in more than one cluster", p)
			}
			seen[p] = true
			if r.Assign[p] != ci {
				return fmt.Errorf("zoo: point %d assigned %d but listed in cluster %d", p, r.Assign[p], ci)
			}
		}
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("zoo: point %d in no cluster (assign %d)", p, r.Assign[p])
		}
	}
	return nil
}

// canonicalize builds the canonical Result from a raw per-point cluster
// id slice (ids need not be dense; negative ids become singleton
// clusters). It renumbers clusters by smallest member and sorts member
// lists ascending.
func canonicalize(raw []int) *Result {
	n := len(raw)
	res := &Result{Assign: make([]int, n)}
	if n == 0 {
		return res
	}
	groups := map[int][]int{}
	next := -1 // synthetic ids for negative (outlier) entries
	for p, id := range raw {
		if id < 0 {
			groups[next] = []int{p}
			next--
			continue
		}
		groups[id] = append(groups[id], p)
	}
	clusters := make([][]int, 0, len(groups))
	for _, members := range groups {
		sort.Ints(members)
		clusters = append(clusters, members)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	for ci, members := range clusters {
		for _, p := range members {
			res.Assign[p] = ci
		}
	}
	res.Clusters = clusters
	return res
}

// clampK bounds a target cluster count to the usable range for n
// points, rejecting K < 1.
func clampK(k, n int) (int, error) {
	if k < 1 {
		return 0, fmt.Errorf("zoo: k = %d, need at least 1", k)
	}
	if k > n && n > 0 {
		k = n
	}
	return k, nil
}
