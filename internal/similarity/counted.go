package similarity

import "math"

// CountedMeasure computes a similarity from the intersection size and the
// two transaction lengths alone, without touching the transactions. Every
// Measure is a pure function of (|a ∩ b|, |a|, |b|), which is what makes
// inverted-index driven neighbor counting exact: an index scan yields the
// intersection size, and the counted form turns it into the identical
// float Measure.Sim would have produced.
type CountedMeasure func(inter, la, lb int) float64

// countedJaccard, countedDice, countedCosine and countedOverlap are the
// four measures' only implementations. Measure.Sim applies them to
// IntersectSize, so the index path and the pairwise path compute
// bit-identical floats: there is no second expression to drift. Each
// guards its zero denominator and returns a value in [0, 1].

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
