package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// Set-up is repeated so its median is steady: at least minSetups times,
// then more while setupBudget lasts, up to maxSetups.
const (
	minSetups   = 9
	maxSetups   = 200
	setupBudget = time.Second
)

// batchWorkload is one batch workload: the bytes a user hands over, how
// they parse, and the core.Cluster configuration. Workers and every
// crossover stay at their defaults; Seed comes from the run.
type batchWorkload struct {
	input func(seed int64) ([]byte, error)
	parse func([]byte) (*dataset.Dataset, error)
	cfg   core.Config
}

// denseLabels is planted-label records handed over as CSV: 4 classes
// over 10 attributes of 5 values, noise 0.1. At θ=0.5 each point has
// about n/4 neighbours, so merged link rows go dense and merge dominates
// the call.
func denseLabels(n int) batchWorkload {
	return batchWorkload{
		input: func(seed int64) ([]byte, error) {
			d := synth.Labeled(synth.LabeledConfig{Records: n, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: seed})
			var b bytes.Buffer
			err := dataset.WriteCSV(&b, d)
			return b.Bytes(), err
		},
		parse: func(b []byte) (*dataset.Dataset, error) {
			opts := dataset.DefaultCSVOptions()
			opts.LabelCol = 10 // WriteCSV appends the class after the 10 attributes
			return dataset.ReadCSV(bytes.NewReader(b), opts)
		},
		cfg: core.Config{Theta: 0.5, K: 4},
	}
}

// hubShape sizes the sampled-baskets workload: baskets drawn from
// disjoint templates, plus hub items that every template draws.
type hubShape struct {
	baskets       int
	templates     int
	templateItems int
	basketItems   int
	hubs          int
	hubRate       float64 // chance that a drawn item is a hub
	sample, k     int     // core.Config.SampleSize and K
}

var fullHubs = hubShape{baskets: 100_000, templates: 500, templateItems: 15, basketItems: 12, hubs: 15, hubRate: 0.15, sample: 20_000, k: 500}

// sampledBaskets is hub-heavy baskets handed over as basket text, the
// template as each line's label token. Clustering a sample and labeling
// the rest is the paper's route to large inputs; the hubs give the
// neighbour index long postings.
func sampledBaskets(s hubShape) batchWorkload {
	return batchWorkload{
		input: func(seed int64) ([]byte, error) { return hubBaskets(s, seed), nil },
		parse: func(b []byte) (*dataset.Dataset, error) {
			return dataset.ReadBasket(bytes.NewReader(b), dataset.BasketOptions{FirstTokenIsLabel: true})
		},
		cfg: core.Config{Theta: 0.45, K: s.k, SampleSize: s.sample},
	}
}

// hubBaskets writes the baskets: each draws basketItems distinct items
// from its template, each draw a hub with probability hubRate.
func hubBaskets(s hubShape, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	used := make([]bool, s.templateItems+s.hubs)
	var b []byte
	for i := 0; i < s.baskets; i++ {
		t := int64(rng.Intn(s.templates))
		clear(used)
		b = append(b, 't')
		b = strconv.AppendInt(b, t, 10)
		for k := 0; k < s.basketItems; k++ {
			var j int
			for {
				if rng.Float64() < s.hubRate {
					j = s.templateItems + rng.Intn(s.hubs)
				} else {
					j = rng.Intn(s.templateItems)
				}
				if !used[j] {
					break
				}
			}
			used[j] = true
			if j >= s.templateItems {
				b = append(b, " h"...)
				b = strconv.AppendInt(b, int64(j-s.templateItems), 10)
			} else {
				b = append(b, " t"...)
				b = strconv.AppendInt(b, t, 10)
				b = append(b, 'i')
				b = strconv.AppendInt(b, int64(j), 10)
			}
		}
		b = append(b, '\n')
	}
	return b
}

// runBatch measures one batch workload. Untraced, it times core.Cluster
// calls for the window. Traced, it alternates an untraced call with a
// rebuild of the same call from its phases, each under a span.
func runBatch(w batchWorkload, o runOpts) (*report, error) {
	input, err := w.input(o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating input: %w", err)
	}
	rep := newReport()

	var parses []float64
	var d *dataset.Dataset
	for start := time.Now(); len(parses) < minSetups || (len(parses) < maxSetups && time.Since(start) < setupBudget); {
		runtime.GC()
		sp := o.tr.begin("dataset.parse", int64(len(parses)), -1)
		t0 := time.Now()
		d, err = w.parse(input)
		parses = append(parses, time.Since(t0).Seconds())
		o.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("parsing input: %w", err)
		}
	}

	cfg := w.cfg
	cfg.Seed = o.seed
	var ref *core.Result
	var calls []float64
	var rebuilds []rebuildSample
	deadline := time.Now().Add(o.window)
	for i := int64(0); i == 0 || time.Now().Before(deadline); i++ {
		runtime.GC()
		sp := o.tr.begin("core.cluster", i, -1)
		t0 := time.Now()
		res, err := core.Cluster(d.Trans, cfg)
		el := time.Since(t0).Seconds()
		o.tr.end(sp)
		if !rep.check(err == nil, "core.Cluster call %d: %v", i, err) {
			continue
		}
		calls = append(calls, el)
		if ref == nil {
			ref = res
			err := checkPartition(res, len(d.Trans))
			rep.check(err == nil, "core.Cluster result: %v", err)
		} else {
			rep.check(slices.Equal(res.Assign, ref.Assign) && res.Stats == ref.Stats, "core.Cluster call %d differs from the first call on the same input", i)
		}
		if o.tr != nil {
			runtime.GC()
			s, err := rebuild(o.tr, i, d.Trans, cfg, ref)
			if rep.check(err == nil, "traced rebuild %d differs from core.Cluster: %v", i, err) {
				rebuilds = append(rebuilds, s)
			}
		}
	}
	if ref == nil {
		return nil, errors.New("every core.Cluster call failed")
	}

	setup, cluster := median(parses), median(calls)
	rep.set("setup_s", setup, "s", len(parses))
	rep.set("cluster_s", cluster, "s", len(calls))
	rep.set("op_p50_ms", cluster*1e3, "ms", len(calls))
	rep.set("op_tail_ms", tail(calls)*1e3, "ms", len(calls))
	rep.set("points_per_s", float64(len(d.Trans))/cluster, "points/s", len(calls))
	rep.set("fresh_s", setup+cluster, "s", len(calls))
	rep.set("purity", metrics.Evaluate(ref.Assign, d.Labels).Accuracy, "fraction", len(d.Trans))
	rep.set("max_rss_mb", maxRSSMiB(), "MiB", 1)
	if o.tr != nil && len(rebuilds) > 0 {
		setLayerMetrics(rep, o.tr, rebuilds, setup, cluster, len(parses))
	}
	return rep, nil
}

// setLayerMetrics reports the per-layer metrics of the traced rebuilds:
// span self times as medians, counts from the first rebuild (they repeat
// exactly).
func setLayerMetrics(rep *report, tr *tracer, rs []rebuildSample, parse, cluster float64, parses int) {
	n := len(rs)
	col := func(f func(rebuildSample) float64) []float64 {
		out := make([]float64, n)
		for i, s := range rs {
			out[i] = f(s)
		}
		return out
	}
	first := rs[0]
	rep.set("dataset.parse_s", parse, "s", parses)
	rep.set("similarity.neighbors_s", median(tr.self("similarity.neighbors")), "s", n)
	rep.set("similarity.neighbors_cpu_s", median(col(func(s rebuildSample) float64 { return s.neighborsCPU })), "s", n)
	rep.set("similarity.edges", float64(first.edges), "count", n)
	rep.set("linkage.build_s", median(tr.self("linkage.build")), "s", n)
	rep.set("linkage.entries", float64(first.entries), "count", n)
	rep.set("core.merge_s", median(tr.self("core.merge")), "s", n)
	rep.set("core.merge_alloc_mb", median(col(func(s rebuildSample) float64 { return s.mergeAllocMB })), "MiB", n)
	rep.set("core.merges", float64(first.merges), "count", n)
	if first.candidates > 0 {
		rep.set("core.label_s", median(tr.self("core.label")), "s", n)
		rep.set("core.label_cpu_s", median(col(func(s rebuildSample) float64 { return s.labelCPU })), "s", n)
		rep.set("core.label_candidates", float64(first.candidates), "count", n)
		rep.set("core.label_hit_ratio", float64(first.labeled)/float64(first.candidates), "fraction", n)
	}
	rep.set("trace.overhead_s", median(tr.durations("core.cluster.rebuild"))-cluster, "s", n)
}

// rebuildSample is what one traced rebuild measured besides its spans.
type rebuildSample struct {
	neighborsCPU, labelCPU, mergeAllocMB        float64
	edges, entries, merges, candidates, labeled int
}

// rebuild runs core.Cluster's phases one public call at a time, in the
// pipeline's order and with its defaults, with a span around each, and
// checks every phase against the untraced result ref. Merge always runs
// the serial arena engine; where core.Cluster picks the batched engine
// instead, the time difference lands in trace.overhead_s.
func rebuild(tr *tracer, id int64, ts []dataset.Transaction, cfg core.Config, ref *core.Result) (rebuildSample, error) {
	var s rebuildSample
	var diffs []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	root := tr.begin("core.cluster.rebuild", id, -1)

	n := len(ts)
	sampled := cfg.SampleSize > 0 && cfg.SampleSize < n
	sample := make([]int, n)
	for i := range sample {
		sample[i] = i
	}
	if sampled {
		sp := tr.begin("core.sample", id, root)
		sample = core.SampleIndices(n, cfg.SampleSize, rand.New(rand.NewSource(cfg.Seed)))
		tr.end(sp)
	}
	local := make([]dataset.Transaction, len(sample))
	for i, p := range sample {
		local[i] = ts[p]
	}

	sp := tr.begin("similarity.neighbors", id, root)
	cpu := cpuSeconds()
	nb := similarity.ComputeIndexed(local, cfg.Theta, similarity.Options{})
	s.neighborsCPU = cpuSeconds() - cpu
	tr.end(sp)
	avg, maxDeg, edges := nb.Stats()
	s.edges = edges
	expect(avg == ref.Stats.AvgNeighbors && maxDeg == ref.Stats.MaxNeighbors,
		"neighbours m_a %g m_m %d, core.Cluster %g %d", avg, maxDeg, ref.Stats.AvgNeighbors, ref.Stats.MaxNeighbors)

	sp = tr.begin("linkage.build", id, root)
	lt := linkage.Build(nb, linkage.Options{})
	tr.end(sp)
	s.entries = lt.Entries()
	expect(lt.Pairs() == ref.Stats.LinkPairs && int64(lt.Entries()) == ref.Stats.LinkEntries,
		"links %d pairs %d entries, core.Cluster %d %d", lt.Pairs(), lt.Entries(), ref.Stats.LinkPairs, ref.Stats.LinkEntries)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sp = tr.begin("core.merge", id, root)
	clusters, merges := core.BenchAgglomerateArena(nb.Len(), lt, cfg.K, core.MarketBasketF(cfg.Theta))
	tr.end(sp)
	runtime.ReadMemStats(&after)
	s.mergeAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	s.merges = merges
	expect(clusters == ref.Stats.ClustersFound && merges == ref.Stats.Merges,
		"merge %d clusters %d merges, core.Cluster %d %d", clusters, merges, ref.Stats.ClustersFound, ref.Stats.Merges)

	if sampled {
		sp = tr.begin("core.label", id, root)
		cpu = cpuSeconds()
		cands, queries := outOfSample(ts, sample)
		m, err := core.FreezeSets(ts, ref.LabelSets, nil, cfg.Theta, core.MarketBasketF(cfg.Theta), cfg.Measure)
		var got []int
		if err == nil {
			got = m.AssignBatch(queries, 0)
		}
		s.labelCPU = cpuSeconds() - cpu
		tr.end(sp)
		s.candidates = len(cands)
		if err != nil {
			expect(false, "core.FreezeSets: %v", err)
		} else {
			differ := 0
			for i, p := range cands {
				if got[i] >= 0 {
					s.labeled++
				}
				if got[i] != ref.Assign[p] {
					differ++
				}
			}
			expect(differ == 0 && s.candidates == ref.Stats.LabelCandidates && s.labeled == ref.Stats.Labeled && s.candidates-s.labeled == ref.Stats.Unlabeled,
				"labeling %d candidates %d labeled %d assignments differ, core.Cluster %d %d",
				s.candidates, s.labeled, differ, ref.Stats.LabelCandidates, ref.Stats.Labeled)
		}
	}
	tr.end(root)
	if len(diffs) > 0 {
		return s, errors.New(strings.Join(diffs, "; "))
	}
	return s, nil
}

// outOfSample returns the points the sample left out, ascending, and
// their transactions: the labeling candidates.
func outOfSample(ts []dataset.Transaction, sample []int) ([]int, []dataset.Transaction) {
	in := make([]bool, len(ts))
	for _, p := range sample {
		in[p] = true
	}
	var cands []int
	var queries []dataset.Transaction
	for p, t := range ts {
		if !in[p] {
			cands = append(cands, p)
			queries = append(queries, t)
		}
	}
	return cands, queries
}

// checkPartition reports whether res places every point exactly once:
// in the cluster its Assign entry names, or among the outliers.
func checkPartition(res *core.Result, n int) error {
	if len(res.Assign) != n {
		return fmt.Errorf("%d assignments for %d points", len(res.Assign), n)
	}
	seen := make([]bool, n)
	place := func(p, ci int) error {
		if p < 0 || p >= n || seen[p] || res.Assign[p] != ci {
			return fmt.Errorf("point %d misplaced in cluster %d", p, ci)
		}
		seen[p] = true
		return nil
	}
	for ci, c := range res.Clusters {
		for _, p := range c {
			if err := place(p, ci); err != nil {
				return err
			}
		}
	}
	for _, p := range res.Outliers {
		if err := place(p, -1); err != nil {
			return err
		}
	}
	if i := slices.Index(seen, false); i >= 0 {
		return fmt.Errorf("point %d is in no cluster and not an outlier", i)
	}
	return nil
}
