package core

import (
	"math"
	"testing"
)

func TestMarketBasketF(t *testing.T) {
	tests := []struct{ theta, want float64 }{
		{0, 1},
		{1, 0},
		{0.5, 1.0 / 3.0},
		{0.73, 0.27 / 1.73},
		{0.8, 0.2 / 1.8},
	}
	for _, tc := range tests {
		if got := MarketBasketF(tc.theta); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("f(%g) = %g, want %g", tc.theta, got, tc.want)
		}
	}
}

func TestConstantF(t *testing.T) {
	f := ConstantF(0.42)
	if f(0.1) != 0.42 || f(0.9) != 0.42 {
		t.Fatal("ConstantF not constant")
	}
}

func TestRockGoodnessHandComputed(t *testing.T) {
	// Singleton merge with one link at f = 1/3:
	// denom = 2^(5/3) − 1 − 1.
	want := 1 / (math.Pow(2, 5.0/3.0) - 2)
	if got := RockGoodness(1, 1, 1, 1.0/3.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("g = %g, want %g", got, want)
	}
	if got := RockGoodness(0, 3, 4, 0.5); got != 0 {
		t.Fatalf("zero links should give zero goodness, got %g", got)
	}
}

func TestRockGoodnessNormalizationPenalizesLargeClusters(t *testing.T) {
	// Same cross-link count: merging two large clusters must score below
	// merging two small ones — the whole point of the normalization.
	small := RockGoodness(10, 3, 3, 1.0/3.0)
	large := RockGoodness(10, 50, 50, 1.0/3.0)
	if large >= small {
		t.Fatalf("goodness does not penalize size: small=%g large=%g", small, large)
	}
	// And more links is always better at fixed sizes.
	if RockGoodness(11, 5, 7, 0.25) <= RockGoodness(10, 5, 7, 0.25) {
		t.Fatal("goodness not monotone in links")
	}
}

func TestRockGoodnessDegenerateExponent(t *testing.T) {
	// f = 0 gives exponent 1 and a zero denominator; the fallback is the
	// raw link count.
	if got := RockGoodness(7, 2, 3, 0); got != 7 {
		t.Fatalf("degenerate-exponent fallback = %g, want 7", got)
	}
}

// TestPowTableMatchesRockGoodness: the built-in goodness the arena reads
// from its per-run power table returns RockGoodness's bits exactly, for
// every size pair up to 256 points in both argument orders, across the
// paper's f(θ) values and the degenerate and steep exponents.
func TestPowTableMatchesRockGoodness(t *testing.T) {
	fs := []float64{0, 2, -0.5}
	for _, theta := range []float64{0.1, 0.5, 0.73, 0.8} {
		fs = append(fs, MarketBasketF(theta))
	}
	const maxPoints = 256
	for _, f := range fs {
		pow := newPowTable(maxPoints, f)
		for ni := int32(1); ni < maxPoints; ni++ {
			for nj := int32(1); ni+nj <= maxPoints; nj++ {
				for _, links := range []int32{0, 1, 7, 1 << 20} {
					for _, order := range [][2]int32{{ni, nj}, {nj, ni}} {
						a, b := order[0], order[1]
						got := pow.goodness(links, a, b)
						want := RockGoodness(int(links), int(a), int(b), f)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("f=%g links=%d sizes (%d,%d): table %v (%#x), RockGoodness %v (%#x)",
								f, links, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestAblationGoodnesses(t *testing.T) {
	if LinkCountGoodness(9, 100, 100, 0.3) != 9 {
		t.Fatal("LinkCountGoodness must ignore sizes")
	}
	if got := AverageLinkGoodness(8, 2, 4, 0.3); got != 1 {
		t.Fatalf("AverageLinkGoodness = %g, want 1", got)
	}
}

func TestCriterion(t *testing.T) {
	// Two clusters: {0,1,2} with pairwise links all 2, {3,4} with link 1.
	links := map[[2]int]int{
		{0, 1}: 2, {0, 2}: 2, {1, 2}: 2,
		{3, 4}: 1,
	}
	get := func(i, j int) int {
		if i > j {
			i, j = j, i
		}
		return links[[2]int{i, j}]
	}
	f := 1.0 / 3.0
	exp := 1 + 2*f
	want := 3*6/math.Pow(3, exp) + 2*1/math.Pow(2, exp)
	got := Criterion([][]int{{0, 1, 2}, {3, 4}}, get, f)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Criterion = %g, want %g", got, want)
	}
	// Splitting the linked triple must lower the criterion.
	split := Criterion([][]int{{0, 1}, {2}, {3, 4}}, get, f)
	if split >= got {
		t.Fatalf("split criterion %g not below joined %g", split, got)
	}
	// Singletons contribute nothing.
	if Criterion([][]int{{0}, {1}}, get, f) != 0 {
		t.Fatal("singleton clusters must contribute 0")
	}
}
