package expt

import (
	"fmt"

	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/stirr"
	"github.com/rockclust/rock/internal/synth"
)

// overlapBasket is the stress workload for A1/A2: adjacent cluster
// templates share a third of their items, creating genuine cross links.
func overlapBasket(opts Options) *overlapData {
	n := 600
	if opts.Quick {
		n = 300
	}
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        4,
		TemplateItems:   15,
		OverlapItems:    5,
		TransactionSize: 10,
		Seed:            opts.Seed + 17,
	})
	return &overlapData{d.Trans, d.Labels}
}

type overlapData struct {
	trans  []dataset.Transaction
	labels []string
}

// runA1 probes the goodness normalization: the paper's expected-link
// denominator versus raw link counts and links-per-pair. Raw counts let
// big clusters swallow neighbors through sheer mass; the normalized form
// resists.
func runA1(opts Options) (*Report, error) {
	data := overlapBasket(opts)
	kinds := []struct {
		name string
		g    core.Goodness
	}{
		{"rock (links/expected)", core.GoodnessROCK},
		{"raw link count", core.GoodnessLinkCount},
		{"links per pair", core.GoodnessLinksPerPair},
	}
	headers := []string{"goodness", "clusters", "error e", "ARI"}
	var rows [][]string
	for _, kind := range kinds {
		res, err := core.Cluster(data.trans, core.Config{Theta: 0.4, K: 4, Goodness: kind.g, Seed: 1})
		if err != nil {
			return nil, err
		}
		ev := metrics.Evaluate(res.Assign, data.labels)
		rows = append(rows, []string{kind.name, fmt.Sprintf("%d", res.K()), fmt.Sprintf("%.4f", ev.Error), fmt.Sprintf("%.4f", ev.ARI)})
	}
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Notes:  []string{"expected shape: the normalized goodness dominates or ties with links-per-pair; raw link counts collapse overlapping clusters into one."},
	}, nil
}

// runA2 contrasts QROCK (θ-neighbor connected components) with full ROCK.
// Where components coincide with clusters (mushroom at θ=0.8) QROCK gets
// the same answer at a fraction of the cost; where clusters overlap
// (basket with shared template items) components bridge and QROCK
// collapses while ROCK's goodness ordering resists.
func runA2(opts Options) (*Report, error) {
	headers := []string{"workload", "algorithm", "clusters", "error e", "ARI"}
	var rows [][]string

	// Workload 1: mushroom prefix (species are exact components).
	md := synth.Mushroom(synth.MushroomConfig{Seed: opts.Seed + 7})
	n := 1500
	if opts.Quick {
		n = 600
	}
	mush := subsetPrefix(md, n)
	rockRes, err := core.Cluster(mush.Trans, core.Config{Theta: 0.8, K: 20, MinNeighbors: 1, Seed: 1})
	if err != nil {
		return nil, err
	}
	qRes, err := core.QRock(mush.Trans, core.QRockConfig{Theta: 0.8, MinClusterSize: 2})
	if err != nil {
		return nil, err
	}
	evR := metrics.Evaluate(rockRes.Assign, mush.Labels)
	evQ := metrics.Evaluate(qRes.Assign, mush.Labels)
	rows = append(rows,
		[]string{"mushroom", "ROCK", fmt.Sprintf("%d", rockRes.K()), fmt.Sprintf("%.4f", evR.Error), fmt.Sprintf("%.4f", evR.ARI)},
		[]string{"mushroom", "QROCK", fmt.Sprintf("%d", qRes.K()), fmt.Sprintf("%.4f", evQ.Error), fmt.Sprintf("%.4f", evQ.ARI)},
	)

	// Workload 2: overlapping baskets (components bridge).
	data := overlapBasket(opts)
	rockRes, err = core.Cluster(data.trans, core.Config{Theta: 0.4, K: 4, Seed: 1})
	if err != nil {
		return nil, err
	}
	qRes, err = core.QRock(data.trans, core.QRockConfig{Theta: 0.4, MinClusterSize: 2})
	if err != nil {
		return nil, err
	}
	evR = metrics.Evaluate(rockRes.Assign, data.labels)
	evQ = metrics.Evaluate(qRes.Assign, data.labels)
	rows = append(rows,
		[]string{"overlap-basket", "ROCK", fmt.Sprintf("%d", rockRes.K()), fmt.Sprintf("%.4f", evR.Error), fmt.Sprintf("%.4f", evR.ARI)},
		[]string{"overlap-basket", "QROCK", fmt.Sprintf("%d", qRes.K()), fmt.Sprintf("%.4f", evQ.Error), fmt.Sprintf("%.4f", evQ.ARI)},
	)
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Notes:  []string{"expected shape: parity on component-separable data; QROCK collapses (few clusters, high error) once neighbor components bridge."},
	}, nil
}

// runA3 sweeps the exponent f: the criterion's model of how many
// neighbors a point has inside a cluster. The market-basket choice
// f(θ)=(1−θ)/(1+θ) is the paper's; extreme exponents distort the
// normalization.
func runA3(opts Options) (*Report, error) {
	d := synth.Votes(synth.VotesConfig{Seed: opts.Seed + 42})
	fs := []struct {
		name string
		f    core.FTheta
	}{
		{"f=(1-θ)/(1+θ) (paper)", core.MarketBasketF},
		{"f=0.05", core.ConstantF(0.05)},
		{"f=0.3", core.ConstantF(0.3)},
		{"f=0.5", core.ConstantF(0.5)},
		{"f=1.0", core.ConstantF(1.0)},
	}
	headers := []string{"exponent", "clusters", "error e", "ARI", "outliers"}
	var rows [][]string
	for _, fk := range fs {
		cfg := votesROCKConfig()
		cfg.F = fk.f
		res, err := core.Cluster(d.Trans, cfg)
		if err != nil {
			return nil, err
		}
		ev := metrics.Evaluate(res.Assign, d.Labels)
		rows = append(rows, []string{fk.name, fmt.Sprintf("%d", res.K()), fmt.Sprintf("%.4f", ev.Error), fmt.Sprintf("%.4f", ev.ARI), fmt.Sprintf("%d", ev.Outliers)})
	}
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Notes:  []string{"expected shape: quality is stable across moderate f and the paper's choice sits in the stable region."},
	}, nil
}

// runA4 toggles the two outlier devices (neighbor pruning, cluster
// weeding) on the votes data.
func runA4(opts Options) (*Report, error) {
	d := synth.Votes(synth.VotesConfig{Seed: opts.Seed + 42})
	variants := []struct {
		name         string
		minNeighbors int
		weedAt       float64
	}{
		{"no outlier handling", 0, 0},
		{"prune only (min 2 neighbors)", 2, 0},
		{"weed only (tail, ≤2)", 0, 0.03},
		{"prune + weed (paper)", 2, 0.03},
	}
	headers := []string{"variant", "clusters", "error e", "ARI", "outliers"}
	var rows [][]string
	for _, v := range variants {
		cfg := votesROCKConfig()
		cfg.MinNeighbors = v.minNeighbors
		cfg.WeedAt = v.weedAt
		res, err := core.Cluster(d.Trans, cfg)
		if err != nil {
			return nil, err
		}
		ev := metrics.Evaluate(res.Assign, d.Labels)
		rows = append(rows, []string{v.name, fmt.Sprintf("%d", res.K()), fmt.Sprintf("%.4f", ev.Error), fmt.Sprintf("%.4f", ev.ARI), fmt.Sprintf("%d", ev.Outliers)})
	}
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Notes: []string{
			"expected shape: outlier handling trades a minority of outliers for visibly purer clusters (paper: 41 outliers on votes).",
			"on this substitute the neighbor-count prune does the heavy lifting; weeding alone fires before the fringe has merged anywhere and removes too little too early.",
		},
	}, nil
}

// runA5 pits the STIRR dynamical systems against ROCK on the votes data:
// the classic per-attribute-normalized iteration (convergence not
// guaranteed — the ICDE 2000 critique) and the revised linear iteration.
func runA5(opts Options) (*Report, error) {
	d := synth.Votes(synth.VotesConfig{Seed: opts.Seed + 42})
	records := baseline.RecordsOf(d)

	headers := []string{"algorithm", "converged", "error e", "ARI"}
	var rows [][]string
	for _, variant := range []struct {
		name    string
		revised bool
	}{{"STIRR (classic, sum combiner)", false}, {"revised dynamical system", true}} {
		res, err := stirr.Run(records, len(d.Attrs), stirr.Config{Revised: variant.revised, Seed: opts.Seed + 5, Iters: 300})
		if err != nil {
			return nil, err
		}
		assign := stirr.ClusterRecords(res, records, 1)
		ev := metrics.Evaluate(assign, d.Labels)
		rows = append(rows, []string{variant.name, fmt.Sprintf("%v", res.Converged), fmt.Sprintf("%.4f", ev.Error), fmt.Sprintf("%.4f", ev.ARI)})
	}
	rockRes, err := core.Cluster(d.Trans, votesROCKConfig())
	if err != nil {
		return nil, err
	}
	evR := metrics.Evaluate(rockRes.Assign, d.Labels)
	rows = append(rows, []string{fmt.Sprintf("ROCK (θ=%.2f)", votesTheta), "-", fmt.Sprintf("%.4f", evR.Error), fmt.Sprintf("%.4f", evR.ARI)})
	return &Report{
		Tables: []string{FormatTable(headers, rows)},
		Notes:  []string{"expected shape: the revised system converges and splits the parties; classic STIRR may fail to converge or split arbitrarily; ROCK matches or beats both at the cost of outliers."},
	}, nil
}
