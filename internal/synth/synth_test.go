package synth

import (
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// meanSim averages pairwise Jaccard over up to lim pairs within/across the
// label groups of d.
func meanSims(d *dataset.Dataset, lim int) (within, across float64) {
	var wn, an int
	var ws, as float64
	n := d.Len()
	step := 1
	if n > 400 {
		step = n / 400
	}
	for i := 0; i < n && wn+an < lim; i += step {
		for j := i + step; j < n; j += step {
			s := similarity.Jaccard.Sim(d.Trans[i], d.Trans[j])
			if d.Labels[i] == d.Labels[j] {
				ws += s
				wn++
			} else {
				as += s
				an++
			}
		}
	}
	if wn > 0 {
		within = ws / float64(wn)
	}
	if an > 0 {
		across = as / float64(an)
	}
	return within, across
}

func TestBasketShape(t *testing.T) {
	d := Basket(BasketConfig{Transactions: 300, Clusters: 3, Seed: 1})
	if d.Len() != 300 {
		t.Fatalf("len = %d", d.Len())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := d.ClassCounts()
	if len(counts) != 3 {
		t.Fatalf("classes = %v", counts)
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %s has %d records, want 100", c, n)
		}
	}
	within, across := meanSims(d, 100000)
	if within < 2*across {
		t.Fatalf("basket not separable: within %g across %g", within, across)
	}
}

func TestBasketDeterminism(t *testing.T) {
	a := Basket(BasketConfig{Transactions: 50, Clusters: 2, Seed: 7})
	b := Basket(BasketConfig{Transactions: 50, Clusters: 2, Seed: 7})
	for i := range a.Trans {
		if !a.Trans[i].Equal(b.Trans[i]) {
			t.Fatal("same seed produced different data")
		}
	}
	c := Basket(BasketConfig{Transactions: 50, Clusters: 2, Seed: 8})
	same := true
	for i := range a.Trans {
		if !a.Trans[i].Equal(c.Trans[i]) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestBasketEmptyAndOverlap(t *testing.T) {
	if d := Basket(BasketConfig{}); d.Len() != 0 {
		t.Fatal("zero config should be empty")
	}
	d := Basket(BasketConfig{Transactions: 200, Clusters: 2, OverlapItems: 10, Seed: 2})
	within, across := meanSims(d, 100000)
	d2 := Basket(BasketConfig{Transactions: 200, Clusters: 2, Seed: 2})
	w2, a2 := meanSims(d2, 100000)
	if across <= a2 {
		t.Fatalf("overlap should raise cross-cluster similarity: %g vs %g", across, a2)
	}
	_ = within
	_ = w2
}

func TestLabeledShape(t *testing.T) {
	d := Labeled(LabeledConfig{Records: 120, Classes: 4, Seed: 3})
	if d.Len() != 120 || len(d.ClassCounts()) != 4 {
		t.Fatalf("len %d classes %v", d.Len(), d.ClassCounts())
	}
	within, across := meanSims(d, 100000)
	if within < across+0.2 {
		t.Fatalf("labeled data not separable: %g vs %g", within, across)
	}
	// Missing values reduce arity.
	dm := Labeled(LabeledConfig{Records: 50, Classes: 2, Missing: 0.3, Seed: 3})
	short := 0
	for _, tr := range dm.Trans {
		if tr.Len() < 10 {
			short++
		}
	}
	if short == 0 {
		t.Fatal("missing rate produced no short records")
	}
}

func TestVotesShape(t *testing.T) {
	d := Votes(VotesConfig{Seed: 5})
	if d.Len() != 435 {
		t.Fatalf("len = %d, want 435", d.Len())
	}
	counts := d.ClassCounts()
	if counts["democrat"] != 267 || counts["republican"] != 168 {
		t.Fatalf("classes = %v", counts)
	}
	if len(d.Attrs) != 16 {
		t.Fatalf("attrs = %d", len(d.Attrs))
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Missing votes exist; most records are near-complete, with a small
	// low-attendance fringe allowed to be much shorter.
	shorter, veryShort := 0, 0
	for _, tr := range d.Trans {
		if tr.Len() < 16 {
			shorter++
		}
		if tr.Len() < 12 {
			veryShort++
		}
		if tr.Len() < 3 {
			t.Fatalf("record with %d items — missing rate too high", tr.Len())
		}
	}
	if shorter == 0 {
		t.Fatal("no records with missing votes")
	}
	if veryShort > d.Len()/5 {
		t.Fatalf("%d of %d records very short — absentee fringe too large", veryShort, d.Len())
	}
	within, across := meanSims(d, 100000)
	if within <= across {
		t.Fatalf("party structure absent: within %g across %g", within, across)
	}
}

func TestVotesPartisanAttribute(t *testing.T) {
	d := Votes(VotesConfig{Seed: 6})
	// physician-fee-freeze=y must be overwhelmingly republican.
	it, ok := d.Vocab.Lookup("physician-fee-freeze=y")
	if !ok {
		t.Fatal("attribute item missing")
	}
	rep, dem := 0, 0
	for i, tr := range d.Trans {
		if tr.Contains(it) {
			if d.Labels[i] == "republican" {
				rep++
			} else {
				dem++
			}
		}
	}
	// The role model leaves moderate/crossover Democrats voting yes here,
	// but the Republican lean must remain strong despite the 267/168
	// class imbalance.
	if rep < 2*dem {
		t.Fatalf("fee-freeze=y: %d rep vs %d dem — not partisan", rep, dem)
	}
}

func TestMushroomShape(t *testing.T) {
	d := Mushroom(MushroomConfig{Seed: 7})
	if d.Len() != 8124 {
		t.Fatalf("len = %d, want 8124", d.Len())
	}
	counts := d.ClassCounts()
	if counts["edible"] != 4208 || counts["poisonous"] != 3916 {
		t.Fatalf("classes = %v", counts)
	}
	if len(d.Attrs) != 22 {
		t.Fatalf("attrs = %d", len(d.Attrs))
	}
	// Every record has full arity (no missing values).
	for i, tr := range d.Trans {
		if tr.Len() != 22 {
			t.Fatalf("record %d has %d items", i, tr.Len())
		}
	}
	// Species counts match the size tables.
	species := map[string]int{}
	for _, n := range d.Names {
		species[n]++
	}
	if len(species) != MushroomSpeciesCount() {
		t.Fatalf("species = %d, want %d", len(species), MushroomSpeciesCount())
	}
	if species["sp00"] != 1728 || species["sp01"] != 1184 || species["sp20"] != 8 || species["sp21"] != 12 {
		t.Fatalf("species sizes wrong: %v", species)
	}
}

// The generator's defining geometry: no cross-species pair outside the
// engineered mixed family can reach θ = 0.8 (ROCK separates), within-
// species pairs are dense θ-neighbors (ROCK's clusters stay connected),
// the mixed family has cross-class neighbors (one impure ROCK cluster),
// and in squared Euclidean terms within-species spread overlaps the
// distance to the cross-class sibling (the traditional baseline's trap).
func TestMushroomSimilarityStructure(t *testing.T) {
	d := Mushroom(MushroomConfig{Seed: 8})
	bySpecies := map[string][]int{}
	for i, n := range d.Names {
		bySpecies[n] = append(bySpecies[n], i)
	}
	s0 := bySpecies["sp00"]
	neighbors, pairs := 0, 0
	for k := 0; k+1 < len(s0) && k < 300; k += 2 {
		s := similarity.Jaccard.Sim(d.Trans[s0[k]], d.Trans[s0[k+1]])
		if s < 0.57 {
			t.Fatalf("within-species sim %g below the construction bound", s)
		}
		if s >= 0.8 {
			neighbors++
		}
		pairs++
	}
	if float64(neighbors) < 0.5*float64(pairs) {
		t.Fatalf("within-species neighbor rate %d/%d too sparse", neighbors, pairs)
	}
	// Cross-species (including the non-mixed sibling sp02/sp03): never
	// neighbors at θ = 0.8.
	for _, other := range []string{"sp02", "sp01", "sp04", "sp07"} {
		so := bySpecies[other]
		for k := 0; k < 60 && k < len(so); k++ {
			if s := similarity.Jaccard.Sim(d.Trans[s0[k]], d.Trans[so[k]]); s >= 0.8 {
				t.Fatalf("cross-species pair sp00/%s has sim %g ≥ 0.8", other, s)
			}
		}
	}
	// The mixed family (sp16 edible / sp17 poisonous) has cross-class
	// neighbor pairs.
	a, b := bySpecies["sp16"], bySpecies["sp17"]
	cross := 0
	for _, i := range a {
		for _, j := range b {
			if similarity.Jaccard.Sim(d.Trans[i], d.Trans[j]) >= 0.8 {
				cross++
			}
		}
	}
	if cross < 5 {
		t.Fatalf("mixed family has only %d cross neighbors", cross)
	}
	// Euclidean overlap: the largest within-species squared distance
	// exceeds the smallest distance to the sibling species.
	sib := bySpecies["sp01"]
	maxWithin, minCross := 0, 1<<30
	for k := 0; k+1 < 300; k += 2 {
		dd := sqDist(d.Trans[s0[k]], d.Trans[s0[k+1]])
		if dd > maxWithin {
			maxWithin = dd
		}
	}
	for k := 0; k < 300 && k < len(sib); k++ {
		dd := sqDist(d.Trans[s0[k]], d.Trans[sib[k]])
		if dd < minCross {
			minCross = dd
		}
	}
	if maxWithin < minCross {
		t.Fatalf("no Euclidean overlap (within max %d < cross min %d): traditional would win trivially", maxWithin, minCross)
	}
}

func sqDist(a, b dataset.Transaction) int {
	return len(a) + len(b) - 2*a.IntersectSize(b)
}

// Template sanity: informative distances are ≥ 3 across families (no
// cross neighbors possible at θ=0.8), exactly variantDiff within a
// family, and exactly mixedDiff for the engineered family.
func TestMushroomTemplateDistances(t *testing.T) {
	templates, edible := mushroomTemplates()
	dist := func(a, b []int) int {
		d := 0
		for i := numJitterAttrs; i < len(a); i++ {
			if a[i] != b[i] {
				d++
			}
		}
		return d
	}
	for i := 0; i < len(templates); i++ {
		if edible[i] != (i%2 == 0) {
			t.Fatalf("species %d class wrong", i)
		}
		for j := i + 1; j < len(templates); j++ {
			d := dist(templates[i], templates[j])
			sameFamily := i/2 == j/2
			switch {
			case sameFamily && i/2 == mixedFamily:
				if d != mixedDiff {
					t.Fatalf("mixed family distance = %d, want %d", d, mixedDiff)
				}
			case sameFamily:
				if d != variantDiff {
					t.Fatalf("family %d variant distance = %d, want %d", i/2, d, variantDiff)
				}
			default:
				if d < 3 {
					t.Fatalf("species %d,%d informative distance %d < 3 — cross neighbors possible", i, j, d)
				}
			}
		}
	}
}

func TestFundsShape(t *testing.T) {
	d := Funds(FundsConfig{Seed: 9})
	if d.Len() != 795 {
		t.Fatalf("funds = %d, want 795", d.Len())
	}
	if len(d.ClassCounts()) != FundSectorCount() {
		t.Fatalf("sectors = %v", d.ClassCounts())
	}
	// Roughly half the days are up-days.
	for i := 0; i < d.Len(); i += 97 {
		n := d.Trans[i].Len()
		if n < 550/4 || n > 550*3/4 {
			t.Fatalf("fund %d has %d up-days", i, n)
		}
	}
	within, across := meanSims(d, 200000)
	if within < 0.8 {
		t.Fatalf("within-sector similarity %g too low for θ=0.8", within)
	}
	if across > 0.62 {
		t.Fatalf("cross-sector similarity %g too high", across)
	}
}

func TestFundsDeterminism(t *testing.T) {
	a := Funds(FundsConfig{Days: 60, Seed: 1})
	b := Funds(FundsConfig{Days: 60, Seed: 1})
	for i := range a.Trans {
		if !a.Trans[i].Equal(b.Trans[i]) {
			t.Fatal("same seed produced different funds")
		}
	}
}

func TestInterleaveSpreadsGroups(t *testing.T) {
	order := interleave([]int{6, 3, 1})
	if len(order) != 10 {
		t.Fatalf("len = %d", len(order))
	}
	counts := map[int]int{}
	for _, g := range order {
		counts[g]++
	}
	if counts[0] != 6 || counts[1] != 3 || counts[2] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	// The first half must already contain the majority group ~ half its
	// share — i.e. groups are interleaved, not concatenated.
	firstHalf := 0
	for _, g := range order[:5] {
		if g == 0 {
			firstHalf++
		}
	}
	if firstHalf < 2 || firstHalf == 5 {
		t.Fatalf("interleave degenerate: %v", order)
	}
}
