package similarity

import (
	"math"
	"reflect"
)

// CountedMeasure computes a similarity from the intersection size and the
// two transaction lengths alone, without touching the transactions. Every
// built-in Measure is a pure function of (|a ∩ b|, |a|, |b|), which is
// what makes inverted-index driven neighbor counting exact: an index scan
// yields the intersection size, and the counted form turns it into the
// identical float the Measure would have produced.
type CountedMeasure func(inter, la, lb int) float64

// countedJaccard, countedDice, countedCosine and countedOverlap are the
// counted forms the exported Measures delegate to. Keeping a single
// implementation guarantees the index path and the pairwise path compute
// bit-identical floats — there is no second expression to drift.

func countedJaccard(inter, la, lb int) float64 {
	union := la + lb - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func countedDice(inter, la, lb int) float64 {
	if la+lb == 0 {
		return 0
	}
	return 2 * float64(inter) / float64(la+lb)
}

func countedCosine(inter, la, lb int) float64 {
	if la == 0 || lb == 0 {
		return 0
	}
	return float64(inter) / math.Sqrt(float64(la)*float64(lb))
}

func countedOverlap(inter, la, lb int) float64 {
	m := la
	if lb < m {
		m = lb
	}
	if m == 0 {
		return 0
	}
	return float64(inter) / float64(m)
}

// Counted returns the counted form of m when m is one of the package's
// built-in measures (nil selects Jaccard, matching Options.Measure), and
// nil for any other function. A nil return is what makes an Index query
// pairwise: a custom Measure may depend on the transactions' contents
// beyond the three counts, or be positive on disjoint pairs, and no
// postings scan can be exact for it.
//
// Identification compares function code pointers, so only the package's
// own top-level functions match; closures such as Attribute(n) never do.
func Counted(m Measure) CountedMeasure {
	if m == nil {
		return countedJaccard
	}
	p := reflect.ValueOf(m).Pointer()
	switch p {
	case reflect.ValueOf(Jaccard).Pointer():
		return countedJaccard
	case reflect.ValueOf(Dice).Pointer():
		return countedDice
	case reflect.ValueOf(Cosine).Pointer():
		return countedCosine
	case reflect.ValueOf(Overlap).Pointer():
		return countedOverlap
	}
	return nil
}
