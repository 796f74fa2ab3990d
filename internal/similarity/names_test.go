package similarity

import "testing"

// String/ParseMeasure must round-trip every measure under the names a
// model file records, and reject everything else: the property the model
// file format leans on.
func TestMeasureNames(t *testing.T) {
	for m, name := range map[Measure]string{Jaccard: "jaccard", Dice: "dice", Cosine: "cosine", Overlap: "overlap"} {
		if m.String() != name {
			t.Fatalf("measure %d is named %q, want %q", m, m.String(), name)
		}
		if back, ok := ParseMeasure(name); !ok || back != m {
			t.Fatalf("ParseMeasure(%q) = %v, %v, want %v", name, back, ok, m)
		}
	}
	if (Overlap + 1).String() != "" {
		t.Fatal("a value past Overlap must have no name")
	}
	if _, ok := ParseMeasure("nope"); ok {
		t.Fatal("unknown name must not parse")
	}
	if _, ok := ParseMeasure(""); ok {
		t.Fatal("the empty name must not parse")
	}
}
