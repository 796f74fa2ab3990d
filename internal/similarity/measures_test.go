package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rockclust/rock/internal/dataset"
)

func tr(items ...dataset.Item) dataset.Transaction { return dataset.NewTransaction(items...) }

func TestJaccardValues(t *testing.T) {
	tests := []struct {
		a, b dataset.Transaction
		want float64
	}{
		{tr(1, 2, 3), tr(1, 2, 3), 1},
		{tr(1, 2, 3), tr(4, 5, 6), 0},
		{tr(1, 2, 3), tr(2, 3, 4), 0.5},
		{tr(1, 2), tr(1, 2, 3, 4), 0.5},
		{tr(), tr(), 0},
		{tr(), tr(1), 0},
	}
	for _, tc := range tests {
		if got := Jaccard.Sim(tc.a, tc.b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Jaccard(%v,%v) = %g, want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestPaperNeighborExample(t *testing.T) {
	// The paper's market-basket example: {1,2,3,4,5}-subsets of size 3
	// have sim = 2/4 = 0.5 when sharing two items and 1/5 = 0.2 when
	// sharing one.
	a := tr(1, 2, 3)
	b := tr(1, 2, 4)
	c := tr(3, 4, 5)
	if got := Jaccard.Sim(a, b); got != 0.5 {
		t.Errorf("sim({1,2,3},{1,2,4}) = %g, want 0.5", got)
	}
	if got := Jaccard.Sim(a, c); got != 0.2 {
		t.Errorf("sim({1,2,3},{3,4,5}) = %g, want 0.2", got)
	}
}

func TestOtherMeasures(t *testing.T) {
	a, b := tr(1, 2, 3), tr(2, 3, 4, 5)
	if got := Dice.Sim(a, b); math.Abs(got-4.0/7.0) > 1e-12 {
		t.Errorf("Dice = %g", got)
	}
	if got := Cosine.Sim(a, b); math.Abs(got-2/math.Sqrt(12)) > 1e-12 {
		t.Errorf("Cosine = %g", got)
	}
	if got := Overlap.Sim(a, b); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("Overlap = %g", got)
	}
	for _, m := range []Measure{Dice, Cosine, Overlap} {
		if got := m.Sim(tr(), tr()); got != 0 {
			t.Errorf("measure on empty pair = %g, want 0", got)
		}
	}
}

func randTrans(r *rand.Rand, universe, maxLen int) dataset.Transaction {
	n := r.Intn(maxLen + 1)
	items := make([]dataset.Item, n)
	for i := range items {
		items[i] = dataset.Item(r.Intn(universe))
	}
	return dataset.NewTransaction(items...)
}

func TestMeasureProperties(t *testing.T) {
	for _, m := range []Measure{Jaccard, Dice, Cosine, Overlap} {
		cfg := &quick.Config{
			MaxCount: 250,
			Values: func(vals []reflect.Value, r *rand.Rand) {
				vals[0] = reflect.ValueOf(randTrans(r, 15, 8))
				vals[1] = reflect.ValueOf(randTrans(r, 15, 8))
			},
		}
		prop := func(a, b dataset.Transaction) bool {
			s := m.Sim(a, b)
			if s < 0 || s > 1+1e-12 {
				return false // range
			}
			if math.Abs(s-m.Sim(b, a)) > 1e-12 {
				return false // symmetry
			}
			if len(a) > 0 && m.Sim(a, a) != 1 {
				return false // self-similarity
			}
			if a.IntersectSize(b) == 0 && s != 0 {
				return false // disjoint sets are maximally dissimilar
			}
			return true
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", m, err)
		}
	}
}

// Jaccard is a true metric on sets via 1 - J; spot-check the triangle
// inequality property on random triples.
func TestJaccardTriangle(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(randTrans(r, 12, 8))
			}
		},
	}
	prop := func(a, b, c dataset.Transaction) bool {
		dab := 1 - Jaccard.Sim(a, b)
		dbc := 1 - Jaccard.Sim(b, c)
		dac := 1 - Jaccard.Sim(a, c)
		return dac <= dab+dbc+1e-9
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// setDefinitions are the four measures written over the sets themselves,
// with the package's empty-pair conventions: a zero denominator scores 0.
var setDefinitions = [...]func(a, b dataset.Transaction) float64{
	Jaccard: func(a, b dataset.Transaction) float64 {
		if a.UnionSize(b) == 0 {
			return 0
		}
		return float64(a.IntersectSize(b)) / float64(a.UnionSize(b))
	},
	Dice: func(a, b dataset.Transaction) float64 {
		if len(a)+len(b) == 0 {
			return 0
		}
		return 2 * float64(a.IntersectSize(b)) / float64(len(a)+len(b))
	},
	Cosine: func(a, b dataset.Transaction) float64 {
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		return float64(a.IntersectSize(b)) / math.Sqrt(float64(len(a))*float64(len(b)))
	},
	Overlap: func(a, b dataset.Transaction) float64 {
		if min(len(a), len(b)) == 0 {
			return 0
		}
		return float64(a.IntersectSize(b)) / float64(min(len(a), len(b)))
	},
}

// Every measure's counted form, and Sim through it, must be the set
// definition, bit for bit, on (|a∩b|, |a|, |b|): the premise that lets
// inverted-index paths (neighbor phase, labeling phase) decide the
// θ-test without touching the transactions.
func TestCountedFormsMatchMeasures(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for m, def := range setDefinitions {
		m := Measure(m)
		cm := m.Counted()
		for trial := 0; trial < 3000; trial++ {
			a := randTrans(r, 15, 9)
			b := randTrans(r, 15, 9)
			if trial%50 == 0 {
				a = dataset.Transaction{} // exercise the empty edge cases
			}
			if trial%100 == 0 {
				b = dataset.Transaction{}
			}
			want := def(a, b)
			inter := a.IntersectSize(b)
			if got := cm(inter, len(a), len(b)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: counted form %v != set definition %v on |a∩b|=%d |a|=%d |b|=%d",
					m, got, want, inter, len(a), len(b))
			}
			if got := m.Sim(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Sim %v != set definition %v on %v, %v", m, got, want, a, b)
			}
		}
	}
}
