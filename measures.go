package rock

import (
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/similarity"
)

// Measure is one of the four similarity measures below; the zero value
// is Jaccard. m.Sim(a, b) is the similarity in [0,1] of two
// transactions under m.
type Measure = similarity.Measure

// The measures Config.Measure selects from.
const (
	// Jaccard is |a ∩ b| / |a ∪ b|, the paper's similarity for
	// market-basket and categorical data.
	Jaccard = similarity.Jaccard
	// Dice is 2|a ∩ b| / (|a| + |b|).
	Dice = similarity.Dice
	// Cosine is |a ∩ b| / √(|a|·|b|).
	Cosine = similarity.Cosine
	// Overlap is |a ∩ b| / min(|a|, |b|).
	Overlap = similarity.Overlap
)

// Eval summarizes the agreement between a clustering and ground-truth
// labels: the literature's clustering accuracy r, error e and absolute
// error ace, plus ARI and NMI.
type Eval = metrics.Eval

// Evaluate computes all metrics for a cluster assignment (-1 marks
// outliers) against parallel ground-truth labels.
func Evaluate(assign []int, labels []string) Eval { return metrics.Evaluate(assign, labels) }

// ContingencyTable builds the cluster × class count matrix (outliers
// become singleton rows).
func ContingencyTable(assign []int, labels []string) (classes []string, counts [][]int) {
	return metrics.ContingencyTable(assign, labels)
}

// ClusterEntropy returns the weighted mean class entropy over clusters.
func ClusterEntropy(assign []int, labels []string) float64 {
	return metrics.ClusterEntropy(assign, labels)
}
