// Package similarity provides the set-similarity measures used by ROCK and
// the computation of θ-neighbor lists over a dataset, both by brute force
// and through an inverted index over items.
//
// Throughout the package, similarity values lie in [0,1] and two
// transactions are θ-neighbors when sim(a,b) ≥ θ. Following the paper, the
// default measure for market-basket data (and for categorical records
// encoded as attribute=value transactions) is the Jaccard coefficient.
package similarity

import (
	"github.com/rockclust/rock/internal/dataset"
)

// Measure is one of the four similarity measures ROCK finds θ-neighbors
// with. Each is a function of (|a ∩ b|, |a|, |b|) alone, its counted
// form (counted.go), which is what lets the Index answer from item
// postings. The set is closed: the zero value is Jaccard, the paper's
// measure, and no value past Overlap names a measure.
type Measure uint8

const (
	// Jaccard is |a ∩ b| / |a ∪ b|, the paper's similarity for
	// market-basket transactions. Two empty transactions score 0: an
	// empty record supports no evidence of association.
	Jaccard Measure = iota
	// Dice is 2|a ∩ b| / (|a| + |b|).
	Dice
	// Cosine is |a ∩ b| / √(|a|·|b|), the cosine of the angle between the
	// transactions' binary vectors.
	Cosine
	// Overlap is |a ∩ b| / min(|a|, |b|).
	Overlap
)

// measures holds each Measure's canonical name, the stable identifier a
// frozen model file records, and its counted form.
var measures = [...]struct {
	name    string
	counted CountedMeasure
}{
	Jaccard: {"jaccard", countedJaccard},
	Dice:    {"dice", countedDice},
	Cosine:  {"cosine", countedCosine},
	Overlap: {"overlap", countedOverlap},
}

// Sim returns the similarity of a and b under m: the counted form on
// their intersection size and lengths, so a pairwise evaluation and an
// index that counts the intersection from postings compute the same
// float bit for bit. Like Counted, it panics when m is past Overlap.
func (m Measure) Sim(a, b dataset.Transaction) float64 {
	return m.Counted()(a.IntersectSize(b), len(a), len(b))
}

// Counted returns m's counted form. It panics when m is past Overlap.
// Every exported entry point that takes a Measure rejects such a value
// first (core's Config.Validate and FreezeSets, and LoadModel through
// ParseMeasure), so the panic marks a bug in an internal caller.
func (m Measure) Counted() CountedMeasure { return measures[m].counted }

// String returns m's canonical name, such as "jaccard", or "" when m is
// past Overlap.
func (m Measure) String() string {
	if m > Overlap {
		return ""
	}
	return measures[m].name
}

// ParseMeasure returns the measure whose canonical name is name, and
// false when no measure has it. ParseMeasure(m.String()) returns m for
// every measure, which is what makes the round trip through a model file
// exact.
func ParseMeasure(name string) (Measure, bool) {
	for m, e := range measures {
		if e.name == name {
			return Measure(m), true
		}
	}
	return Jaccard, false
}
