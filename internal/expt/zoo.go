package expt

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/synth"
	"github.com/rockclust/rock/internal/zoo"
)

// ZooBenchRow is one engine on one dataset in the algorithm-zoo
// shootout: quality (purity/NMI/ARI against ground truth) bought at a
// measured wall-clock price.
type ZooBenchRow struct {
	Dataset string  `json:"dataset"`
	Engine  string  `json:"engine"`
	N       int     `json:"n"`
	K       int     `json:"k"`       // target cluster count handed to the engine
	KFound  int     `json:"k_found"` // clusters actually produced
	Purity  float64 `json:"purity"`
	NMI     float64 `json:"nmi"`
	ARI     float64 `json:"ari"`
	Sec     float64 `json:"sec"`
	Iters   int     `json:"iters,omitempty"`
	Cost    float64 `json:"cost,omitempty"` // the engine's own objective; scales differ
	Err     string  `json:"err,omitempty"`
}

// ZooBenchReport is the BENCH_zoo.json payload.
type ZooBenchReport struct {
	Host       string        `json:"host"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	NumCPU     int           `json:"numcpu"`
	Quick      bool          `json:"quick"`
	Rows       []ZooBenchRow `json:"rows"`
	Notes      []string      `json:"notes"`
}

// zooWorkload is one labeled dataset of the shootout, with the target K
// and the per-dataset ROCK theta (the same values the E-experiments use
// for these generators).
type zooWorkload struct {
	name  string
	d     *dataset.Dataset
	k     int
	theta float64
}

// zooWorkloads builds the shootout datasets: the planted-label
// generator, the votes stand-in, and a mushroom prefix — two synthetic
// regimes plus the paper's two quality datasets' stand-ins.
func zooWorkloads(opts Options) []zooWorkload {
	labeledN, mushroomN := 2000, 2000
	if opts.Quick {
		labeledN, mushroomN = 400, 400
	}
	labeled := synth.Labeled(synth.LabeledConfig{
		Records: labeledN, Classes: 4, Attributes: 10, Alphabet: 5, Noise: 0.1, Seed: opts.Seed + 1,
	})
	votes := synth.Votes(synth.VotesConfig{Seed: opts.Seed + 2})
	mushroom := subsetPrefix(synth.Mushroom(synth.MushroomConfig{Seed: opts.Seed + 3}), mushroomN)
	return []zooWorkload{
		{name: "labeled", d: labeled, k: 4, theta: 0.5},
		{name: "votes", d: votes, k: 2, theta: 0.73},
		{name: "mushroom", d: mushroom, k: synth.MushroomSpeciesCount(), theta: 0.8},
	}
}

// BenchZoo runs every registered zoo engine over the shootout workloads
// and writes purity/NMI/ARI-vs-wallclock rows as JSON: the record behind
// `rockbench -zoo`. ROCK runs through its zoo adapter with the
// per-dataset theta, so the comparison covers the exact contract the
// conformance suite enforces on all engines alike.
func BenchZoo(w io.Writer, opts Options) error {
	report := ZooBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"engines are the zoo registry defaults (coolcat, hierarchical, k-histograms, k-modes, rock, squeezer, stirr); every partition passed zoo.Check before scoring.",
			"rock runs with per-dataset theta (labeled 0.5, votes 0.73, mushroom 0.8 — the E-experiment settings); its outliers count as singleton clusters under the zoo contract.",
			"stirr and squeezer ignore k: stirr's sign read-out yields two clusters, squeezer's count follows its threshold (default 0.5).",
			"cost is each engine's own objective (mismatch for k-modes, entropy for coolcat, histogram distance for k-histograms) — comparable down a column, not across engines.",
			"timings are single-run wall clock for the whole Fit, including any sampling.",
		},
	}

	for _, wl := range zooWorkloads(opts) {
		for _, e := range zoo.Engines() {
			if e.Name() == "rock" {
				e = &zoo.ROCKEngine{Theta: wl.theta}
			}
			row := ZooBenchRow{Dataset: wl.name, Engine: e.Name(), N: wl.d.Len(), K: wl.k}
			var res *zoo.Result
			var err error
			row.Sec = timeIt(func() {
				res, err = e.Fit(wl.d, zoo.Config{K: wl.k, Seed: opts.Seed + 7})
			})
			if err == nil {
				err = zoo.Check(res, wl.d.Len())
			}
			if err != nil {
				row.Err = err.Error()
				report.Rows = append(report.Rows, row)
				continue
			}
			ev := metrics.Evaluate(res.Assign, wl.d.Labels)
			row.KFound = res.K()
			row.Purity = ev.Accuracy
			row.NMI = ev.NMI
			row.ARI = ev.ARI
			row.Iters = res.Stats.Iters
			row.Cost = res.Stats.Cost
			report.Rows = append(report.Rows, row)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding zoo bench report: %w", err)
	}
	return nil
}
