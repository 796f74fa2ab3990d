package unionfind

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBasic(t *testing.T) {
	f := New(5)
	if f.Count() != 5 || f.Len() != 5 {
		t.Fatalf("fresh forest: count %d len %d", f.Count(), f.Len())
	}
	if !f.Union(0, 1) || !f.Union(1, 2) {
		t.Fatal("unions failed")
	}
	if f.Union(0, 2) {
		t.Fatal("union of already-joined sets reported a merge")
	}
	if f.Count() != 3 {
		t.Fatalf("Count = %d, want 3", f.Count())
	}
	if !f.Same(0, 2) || f.Same(0, 3) {
		t.Fatal("Same wrong")
	}
}

func TestLabelsAndComponents(t *testing.T) {
	f := New(6)
	f.Union(4, 5)
	f.Union(0, 2)
	labels := f.Labels()
	if labels[0] != labels[2] || labels[4] != labels[5] {
		t.Fatalf("labels = %v", labels)
	}
	if labels[0] == labels[4] || labels[1] == labels[0] {
		t.Fatalf("labels merged distinct sets: %v", labels)
	}
	// Dense 0..k-1 labeling in order of first appearance.
	if labels[0] != 0 || labels[1] != 1 || labels[3] != 2 || labels[4] != 3 {
		t.Fatalf("labels not dense/ordered: %v", labels)
	}
	comps := f.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 2 {
		t.Fatalf("comps[0] = %v", comps[0])
	}
}

// Randomized equivalence against a naive labeling model.
func TestAgainstNaiveModel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	const n = 120
	f := New(n)
	model := make([]int, n) // model[i] = set id
	for i := range model {
		model[i] = i
	}
	relabel := func(from, to int) {
		for i := range model {
			if model[i] == from {
				model[i] = to
			}
		}
	}
	for step := 0; step < 3000; step++ {
		x, y := r.Intn(n), r.Intn(n)
		merged := f.Union(x, y)
		if merged != (model[x] != model[y]) {
			t.Fatalf("step %d: Union(%d,%d) = %v, model disagree", step, x, y, merged)
		}
		if merged {
			relabel(model[y], model[x])
		}
		if step%97 == 0 {
			a, b := r.Intn(n), r.Intn(n)
			if f.Same(a, b) != (model[a] == model[b]) {
				t.Fatalf("step %d: Same(%d,%d) disagrees with model", step, a, b)
			}
		}
	}
	distinct := map[int]bool{}
	for _, s := range model {
		distinct[s] = true
	}
	if f.Count() != len(distinct) {
		t.Fatalf("Count = %d, model %d", f.Count(), len(distinct))
	}
}

// labelsMap is Labels as first written, through a map from root to
// label: the oracle for the root-indexed labeling.
func labelsMap(f *Forest) []int {
	labels := make([]int, f.Len())
	seen := make(map[int]int)
	for i := range labels {
		r := f.Find(i)
		l, ok := seen[r]
		if !ok {
			l = len(seen)
			seen[r] = l
		}
		labels[i] = l
	}
	return labels
}

// TestLabelsMatchMapLabels checks Labels against the map-based labeling
// on random forests, from all singletons to one set, where roots land
// both before and after their sets' first members.
func TestLabelsMatchMapLabels(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(80)
		f := New(n)
		for u := r.Intn(2 * n); u > 0; u-- {
			f.Union(r.Intn(n), r.Intn(n))
		}
		got, want := f.Labels(), labelsMap(f)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d n=%d: Labels %v, map labeling %v", trial, n, got, want)
		}
		if comps := f.Components(); len(comps) != f.Count() {
			t.Fatalf("trial %d: %d components, Count %d", trial, len(comps), f.Count())
		}
	}
}
