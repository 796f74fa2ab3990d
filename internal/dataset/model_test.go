package dataset

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewTransactionCanonicalizes(t *testing.T) {
	tr := NewTransaction(5, 1, 3, 1, 5, 2)
	want := Transaction{1, 2, 3, 5}
	if !tr.Equal(want) {
		t.Fatalf("NewTransaction = %v, want %v", tr, want)
	}
	if !tr.Valid() {
		t.Fatalf("NewTransaction produced non-canonical %v", tr)
	}
}

func TestNewTransactionEmpty(t *testing.T) {
	tr := NewTransaction()
	if tr.Len() != 0 {
		t.Fatalf("empty transaction has len %d", tr.Len())
	}
	if !tr.Valid() {
		t.Fatal("empty transaction not valid")
	}
}

// newTransactionReference is NewTransaction as it was before it sorted
// with slices.Sort: a copy, a reflection-based sort.Slice and an in-place
// deduplication. It is the oracle for NewTransaction and the canonical form
// readBasketReference builds with.
func newTransactionReference(items ...Item) Transaction {
	t := make(Transaction, len(items))
	copy(t, items)
	sort.Slice(t, func(i, j int) bool { return t[i] < t[j] })
	// Deduplicate in place.
	out := t[:0]
	for i, it := range t {
		if i == 0 || it != t[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// TestNewTransactionMatchesReference checks NewTransaction against the
// sort.Slice version on random inputs with duplicates, negative ids and no
// items, nil or not: same result, never nil, input untouched.
func TestNewTransactionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 3000; trial++ {
		var items []Item
		if n := rng.Intn(20); n > 0 || trial%2 == 0 {
			items = make([]Item, n)
		}
		for i := range items {
			items[i] = Item(rng.Intn(24) - 6)
		}
		in := slices.Clone(items)
		got, want := NewTransaction(items...), newTransactionReference(items...)
		if !reflect.DeepEqual(got, want) || got == nil {
			t.Fatalf("NewTransaction(%v) = %#v, want %#v", in, got, want)
		}
		if !slices.Equal(items, in) {
			t.Fatalf("NewTransaction modified its input: %v, was %v", items, in)
		}
	}
}

func TestTransactionContains(t *testing.T) {
	tr := NewTransaction(2, 4, 6, 8)
	for _, it := range []Item{2, 4, 6, 8} {
		if !tr.Contains(it) {
			t.Errorf("Contains(%d) = false, want true", it)
		}
	}
	for _, it := range []Item{1, 3, 5, 7, 9, 0} {
		if tr.Contains(it) {
			t.Errorf("Contains(%d) = true, want false", it)
		}
	}
}

func TestIntersectUnionSize(t *testing.T) {
	tests := []struct {
		a, b       Transaction
		inter, uni int
	}{
		{NewTransaction(1, 2, 3), NewTransaction(2, 3, 4), 2, 4},
		{NewTransaction(1, 2, 3), NewTransaction(4, 5, 6), 0, 6},
		{NewTransaction(), NewTransaction(1), 0, 1},
		{NewTransaction(1, 2), NewTransaction(1, 2), 2, 2},
		{NewTransaction(), NewTransaction(), 0, 0},
	}
	for _, tc := range tests {
		if got := tc.a.IntersectSize(tc.b); got != tc.inter {
			t.Errorf("IntersectSize(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.inter)
		}
		if got := tc.a.UnionSize(tc.b); got != tc.uni {
			t.Errorf("UnionSize(%v,%v) = %d, want %d", tc.a, tc.b, got, tc.uni)
		}
	}
}

// randomTransaction builds a canonical transaction over a small universe so
// that intersections are common.
func randomTransaction(r *rand.Rand) Transaction {
	n := r.Intn(12)
	items := make([]Item, n)
	for i := range items {
		items[i] = Item(r.Intn(20))
	}
	return NewTransaction(items...)
}

func TestIntersectSizeProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 300,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(randomTransaction(r))
			vals[1] = reflect.ValueOf(randomTransaction(r))
		},
	}
	prop := func(a, b Transaction) bool {
		in := a.IntersectSize(b)
		// Symmetry, bounds, and the inclusion-exclusion identity.
		if in != b.IntersectSize(a) {
			return false
		}
		if in < 0 || in > a.Len() || in > b.Len() {
			return false
		}
		if a.UnionSize(b) != a.Len()+b.Len()-in {
			return false
		}
		// Oracle: brute-force membership count.
		brute := 0
		for _, it := range a {
			if b.Contains(it) {
				brute++
			}
		}
		return in == brute
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionCloneIndependence(t *testing.T) {
	a := NewTransaction(1, 2, 3)
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing storage")
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	a := v.Intern("apple")
	b := v.Intern("banana")
	if a == b {
		t.Fatal("distinct tokens interned to same id")
	}
	if got := v.Intern("apple"); got != a {
		t.Fatalf("re-interning apple gave %d, want %d", got, a)
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d, want 2", v.Len())
	}
	if v.Name(a) != "apple" || v.Name(b) != "banana" {
		t.Fatal("Name round-trip failed")
	}
	if _, ok := v.Lookup("cherry"); ok {
		t.Fatal("Lookup found token never interned")
	}
	if id, ok := v.Lookup("banana"); !ok || id != b {
		t.Fatal("Lookup(banana) failed")
	}
	if !reflect.DeepEqual(v.Names(), []string{"apple", "banana"}) {
		t.Fatalf("Names() = %v", v.Names())
	}
}

func TestDatasetSubsetAndValidate(t *testing.T) {
	v := NewVocabulary()
	d := &Dataset{
		Vocab:  v,
		Trans:  []Transaction{NewTransaction(v.Intern("a")), NewTransaction(v.Intern("b")), NewTransaction(v.Intern("c"))},
		Labels: []string{"x", "y", "z"},
		Names:  []string{"r0", "r1", "r2"},
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 || s.Labels[0] != "z" || s.Names[1] != "r0" {
		t.Fatalf("Subset wrong: %+v", s)
	}
	if s.Vocab != d.Vocab {
		t.Fatal("Subset must share the vocabulary")
	}

	bad := &Dataset{Vocab: v, Trans: []Transaction{{3, 2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted non-canonical transaction")
	}
	bad2 := &Dataset{Vocab: v, Trans: []Transaction{{Item(v.Len() + 5)}}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-vocabulary item")
	}
	bad3 := &Dataset{Vocab: v, Trans: d.Trans, Labels: []string{"only-one"}}
	if err := bad3.Validate(); err == nil {
		t.Fatal("Validate accepted mismatched label count")
	}
}

func TestClassCounts(t *testing.T) {
	d := &Dataset{Trans: make([]Transaction, 4), Labels: []string{"a", "b", "a", "a"}}
	got := d.ClassCounts()
	if got["a"] != 3 || got["b"] != 1 {
		t.Fatalf("ClassCounts = %v", got)
	}
	var unlabeled Dataset
	if unlabeled.ClassCounts() != nil {
		t.Fatal("ClassCounts on unlabeled dataset should be nil")
	}
}
