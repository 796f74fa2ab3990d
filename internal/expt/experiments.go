package expt

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options tune experiment execution.
type Options struct {
	// Quick shrinks dataset sizes and sweeps so the full suite runs in
	// seconds — used by tests; the defaults reproduce the paper-scale
	// runs.
	Quick bool
	Seed  int64
	// Long unlocks the large rows of the neighbor sweep
	// (BenchNeighbors): n=3×10⁵, a 10⁶-point neighbor row and a full
	// chunked clustering at that scale. Minutes of runtime; off by
	// default.
	Long bool
}

// Report is the outcome of one experiment.
type Report struct {
	ID     string
	Title  string
	Tables []string // formatted text tables
	Series []Series // figure curves, if any
	Notes  []string // paper-shape commentary and measured summaries
}

// WriteTo renders the report as text.
func (r *Report) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	for _, t := range r.Tables {
		b.WriteString(t)
		b.WriteByte('\n')
	}
	if len(r.Series) > 0 {
		b.WriteString(FormatSeries(r.Series))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	b.WriteByte('\n')
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// runner produces a report for one experiment id.
type runner func(Options) (*Report, error)

var registry = map[string]struct {
	title string
	run   runner
}{
	"E1": {"Traditional centroid hierarchical on Congressional Votes", runE1},
	"E2": {"ROCK on Congressional Votes (θ=0.56, k=2)", runE2},
	"E3": {"Traditional centroid hierarchical on Mushroom (sampled + labeled)", runE3},
	"E4": {"ROCK on Mushroom (θ=0.8, k=20, sample + label)", runE4},
	"E5": {"ROCK on the mutual-fund universe (θ=0.8)", runE5},
	"E6": {"Execution time vs sample size for θ ∈ {0.5,0.6,0.7,0.8}", runE6},
	"E7": {"Clustering error vs sample size (random sampling + labeling)", runE7},
	"E8": {"Motivating example: links vs similarity-only merging", runE8},
	"A1": {"Ablation: goodness normalization", runA1},
	"A2": {"Ablation: QROCK (neighbor components) vs full ROCK", runA2},
	"A3": {"Ablation: f(θ) exponent sensitivity", runA3},
	"A4": {"Ablation: outlier pruning and weeding", runA4},
	"A5": {"Extension: STIRR and the revised dynamical system vs ROCK", runA5},
}

// IDs lists the experiment ids in canonical order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the registered title for an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes one experiment and writes its report.
func Run(id string, w io.Writer, opts Options) error {
	ent, ok := registry[id]
	if !ok {
		return fmt.Errorf("expt: unknown experiment %q (have %v)", id, IDs())
	}
	rep, err := ent.run(opts)
	if err != nil {
		return fmt.Errorf("expt: %s: %w", id, err)
	}
	rep.ID, rep.Title = id, ent.title
	_, err = rep.WriteTo(w)
	return err
}

// RunAll executes every experiment in canonical order.
func RunAll(w io.Writer, opts Options) error {
	for _, id := range IDs() {
		if err := Run(id, w, opts); err != nil {
			return err
		}
	}
	return nil
}
