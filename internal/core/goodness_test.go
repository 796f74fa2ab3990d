package core

import (
	"math"
	"strings"
	"testing"

	"github.com/rockclust/rock/internal/similarity"
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

// goodnessFunc is the reference engine's scoring: the goodness of
// merging clusters of sizes ni and nj over links cross links, at exponent
// value f = f(θ).
type goodnessFunc func(links, ni, nj int, f float64) float64

// referenceGoodness maps each Goodness kind to its formula, which the
// reference engine calls per candidate where the arena evaluates the kind
// inline.
var referenceGoodness = [...]goodnessFunc{
	GoodnessROCK:         rockGoodness,
	GoodnessLinkCount:    linkCountGoodness,
	GoodnessLinksPerPair: linksPerPairGoodness,
}

// rockGoodness is the paper's goodness measure
//
//	g(Ci,Cj) = link[Ci,Cj] / ((ni+nj)^(1+2f) − ni^(1+2f) − nj^(1+2f))
//
// with math.Pow per candidate: the oracle for GoodnessROCK's power table.
func rockGoodness(links, ni, nj int, f float64) float64 {
	if links == 0 {
		return 0
	}
	exp := 1 + 2*f
	denom := math.Pow(float64(ni+nj), exp) - math.Pow(float64(ni), exp) - math.Pow(float64(nj), exp)
	if denom <= 0 {
		// exp ≤ 1 can produce a non-positive expectation; fall back to the
		// raw link count so merging still prefers strongly linked pairs.
		return float64(links)
	}
	return float64(links) / denom
}

// linkCountGoodness is GoodnessLinkCount: the raw cross-link count.
func linkCountGoodness(links, ni, nj int, f float64) float64 {
	return float64(links)
}

// linksPerPairGoodness is GoodnessLinksPerPair: links/(ni·nj).
func linksPerPairGoodness(links, ni, nj int, f float64) float64 {
	return float64(links) / (float64(ni) * float64(nj))
}

func TestRockGoodnessHandComputed(t *testing.T) {
	// Singleton merge with one link at f = 1/3:
	// denom = 2^(5/3) − 1 − 1.
	want := 1 / (math.Pow(2, 5.0/3.0) - 2)
	if got := rockGoodness(1, 1, 1, 1.0/3.0); math.Abs(got-want) > 1e-12 {
		t.Fatalf("g = %g, want %g", got, want)
	}
	if got := rockGoodness(0, 3, 4, 0.5); got != 0 {
		t.Fatalf("zero links should give zero goodness, got %g", got)
	}
}

func TestRockGoodnessNormalizationPenalizesLargeClusters(t *testing.T) {
	// Same cross-link count: merging two large clusters must score below
	// merging two small ones — the whole point of the normalization.
	small := rockGoodness(10, 3, 3, 1.0/3.0)
	large := rockGoodness(10, 50, 50, 1.0/3.0)
	if large >= small {
		t.Fatalf("goodness does not penalize size: small=%g large=%g", small, large)
	}
	// And more links is always better at fixed sizes.
	if rockGoodness(11, 5, 7, 0.25) <= rockGoodness(10, 5, 7, 0.25) {
		t.Fatal("goodness not monotone in links")
	}
}

func TestRockGoodnessDegenerateExponent(t *testing.T) {
	// f = 0 gives exponent 1 and a zero denominator; the fallback is the
	// raw link count.
	if got := rockGoodness(7, 2, 3, 0); got != 7 {
		t.Fatalf("degenerate-exponent fallback = %g, want 7", got)
	}
}

// TestPowTableMatchesRockGoodness: GoodnessROCK, read from the arena's
// per-run power table, returns rockGoodness's bits exactly, for every
// size pair up to 256 points in both argument orders, across the paper's
// f(θ) values and the degenerate and steep exponents.
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
						want := rockGoodness(int(links), int(a), int(b), f)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("f=%g links=%d sizes (%d,%d): table %v (%#x), rockGoodness %v (%#x)",
								f, links, a, b, got, math.Float64bits(got), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// TestAblationGoodnesses: the arena scores two slots of 2 and 4 points
// joined by 8 folded links as each kind's hand-computed value, and the
// reference formulas agree.
func TestAblationGoodnesses(t *testing.T) {
	lt := tableFromPairs(6, map[[2]int]int{{0, 2}: 3, {1, 5}: 5})
	f := 0.3
	cases := []struct {
		good Goodness
		want float64
	}{
		{GoodnessROCK, 8 / (math.Pow(6, 1+2*f) - math.Pow(2, 1+2*f) - math.Pow(4, 1+2*f))},
		{GoodnessLinkCount, 8},
		{GoodnessLinksPerPair, 1},
	}
	for _, c := range cases {
		a, err := newArena(lt, []int32{0, 0, 1, 1, 1, 1}, 2, c.good, f)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.bestG[0]; math.Abs(got-c.want) > 1e-12 {
			t.Errorf("goodness %d: arena scores %g, want %g", c.good, got, c.want)
		}
		if got := referenceGoodness[c.good](8, 2, 4, f); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("goodness %d: reference formula %g, want %g", c.good, got, c.want)
		}
	}
}

// TestPowTableOverflow: newArena refuses a GoodnessROCK power table that
// overflows at the point count, and accepts one that does not, including
// an empty arena at a negative exponent, where only the unused pow[0] is
// infinite. The ablation kinds build no table.
func TestPowTableOverflow(t *testing.T) {
	lt := tableFromPairs(5, map[[2]int]int{{0, 1}: 1, {1, 2}: 1})
	slotOf := []int32{0, 1, 2, 3, 4}
	if _, err := newArena(lt, slotOf, 5, GoodnessROCK, 1000); err == nil || !strings.Contains(err.Error(), "2001") {
		t.Fatalf("err = %v, want an overflow error naming the exponent 2001", err)
	}
	// 5^442 ≈ 8.8e308 is past math.MaxFloat64; 5^441 ≈ 1.8e308 is not.
	if _, err := newArena(lt, slotOf, 5, GoodnessROCK, 220.5); err == nil {
		t.Fatal("5^442 accepted")
	}
	if _, err := newArena(lt, slotOf, 5, GoodnessROCK, 220); err != nil {
		t.Fatalf("5^441 rejected: %v", err)
	}
	for _, good := range []Goodness{GoodnessLinkCount, GoodnessLinksPerPair} {
		if _, err := newArena(lt, slotOf, 5, good, 1000); err != nil {
			t.Fatalf("goodness %d: %v", good, err)
		}
	}
	if _, err := newArena(tableFromPairs(0, nil), nil, 0, GoodnessROCK, -2); err != nil {
		t.Fatalf("empty arena at exponent -3: %v", err)
	}
	// The merge phase fails alike whether it returns the 3 components
	// (K ≤ 3) or builds the arena (K = 4), over lists that link 0–1
	// through 3 and 1–2 through 4, as lt does.
	nb := &similarity.Neighbors{Lists: [][]int32{nil, nil, nil, {0, 1}, {1, 2}}}
	for _, k := range []int{3, 4} {
		for _, good := range []Goodness{GoodnessROCK, GoodnessLinkCount} {
			_, err := mergePhase(nb, slotOf, 5, Config{K: k, Goodness: good, F: ConstantF(1000)}.withDefaults(), &Stats{})
			wantErr := good == GoodnessROCK
			if (err != nil) != wantErr || wantErr && !strings.Contains(err.Error(), "2001") {
				t.Fatalf("merge phase K=%d goodness %d: err = %v", k, good, err)
			}
		}
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
