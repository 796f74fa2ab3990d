package expt

import (
	"fmt"

	"github.com/rockclust/rock/internal/baseline"
	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
)

// motivatingTransactions is the paper's worked example: the ten size-3
// subsets of {1..5} (one cluster) and the {1,2,6,7} family (another).
// Several cross pairs tie the within-cluster Jaccard of 0.5 — similarity
// alone cannot separate the groups, links can.
func motivatingTransactions() ([]dataset.Transaction, []string) {
	tr := func(items ...dataset.Item) dataset.Transaction { return dataset.NewTransaction(items...) }
	ts := []dataset.Transaction{
		tr(1, 2, 3), tr(1, 2, 4), tr(1, 2, 5), tr(1, 3, 4), tr(1, 3, 5),
		tr(1, 4, 5), tr(2, 3, 4), tr(2, 3, 5), tr(2, 4, 5), tr(3, 4, 5),
		tr(1, 2, 6), tr(1, 2, 7), tr(1, 6, 7), tr(2, 6, 7),
	}
	labels := make([]string, len(ts))
	for i := range labels {
		if i < 10 {
			labels[i] = "A({1..5} subsets)"
		} else {
			labels[i] = "B({1,2,6,7} family)"
		}
	}
	return ts, labels
}

// runE8 contrasts links with raw similarity on the motivating example:
// the cross-group pairs reach the same similarity as within-group pairs,
// but their link counts are strictly smaller, and ROCK's clusters respect
// the boundary that centroid merging tramples.
func runE8(opts Options) (*Report, error) {
	ts, labels := motivatingTransactions()
	nb := similarity.Compute(ts, 0.5, similarity.Options{})
	lt := linkage.Build(nb, linkage.Options{})

	simTable := FormatTable(
		[]string{"pair", "groups", "jaccard", "links"},
		[][]string{
			{"{1,2,3} vs {1,2,4}", "A-A", fmt.Sprintf("%.2f", similarity.Jaccard.Sim(ts[0], ts[1])), fmt.Sprintf("%d", lt.Get(0, 1))},
			{"{1,2,3} vs {3,4,5}", "A-A", fmt.Sprintf("%.2f", similarity.Jaccard.Sim(ts[0], ts[9])), fmt.Sprintf("%d", lt.Get(0, 9))},
			{"{1,2,3} vs {1,2,6}", "A-B", fmt.Sprintf("%.2f", similarity.Jaccard.Sim(ts[0], ts[10])), fmt.Sprintf("%d", lt.Get(0, 10))},
			{"{1,6,7} vs {2,6,7}", "B-B", fmt.Sprintf("%.2f", similarity.Jaccard.Sim(ts[12], ts[13])), fmt.Sprintf("%d", lt.Get(12, 13))},
		},
	)

	rock, err := core.Cluster(ts, core.Config{Theta: 0.5, K: 2, Seed: 1})
	if err != nil {
		return nil, err
	}
	trad, err := baseline.Hierarchical(ts, baseline.HierarchicalConfig{K: 2, Linkage: baseline.Centroid})
	if err != nil {
		return nil, err
	}
	return &Report{
		Tables: []string{
			simTable,
			"ROCK clusters (θ=0.5, k=2):\n" + compositionTable(labels, rock.Assign),
			"Traditional centroid clusters (k=2):\n" + compositionTable(labels, trad.Assign),
		},
		Notes: []string{
			linkStatsNote(rock.Stats),
			"cross-group pairs reach Jaccard 0.50 — exactly the within-group similarity — but carry strictly fewer links (3 across vs 5 within; the family core pair {1,6,7}/{2,6,7} has no cross links at all).",
			"on this 14-point toy both algorithms settle on the same split at k=2, absorbing the two genuinely ambiguous border transactions {1,2,6} and {1,2,7}; the link statistics are the paper's point — at scale, where similarity ties abound (see E1/E3), only the link-based criterion stays robust.",
		},
	}, nil
}
