package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// TestReadBasketAllocs bounds ReadBasket's allocations by what it must
// keep, the distinct item names and labels, plus a constant for its
// containers; a per-line allocation would cost 20,000 more.
func TestReadBasketAllocs(t *testing.T) {
	const lines, names, labels = 20_000, 300, 20
	rng := rand.New(rand.NewSource(1))
	var in []byte
	for i := 0; i < lines; i++ {
		in = fmt.Appendf(in, "c%d", rng.Intn(labels))
		for k := 0; k < 10; k++ {
			in = fmt.Appendf(in, " i%d", rng.Intn(names))
		}
		in = append(in, '\n')
	}
	opts := BasketOptions{FirstTokenIsLabel: true}
	d, err := ReadBasket(bytes.NewReader(in), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != lines || d.Vocab.Len() != names {
		t.Fatalf("parsed %d lines over %d names, want %d over %d", d.Len(), d.Vocab.Len(), lines, names)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ReadBasket(bytes.NewReader(in), opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocations a parse", allocs)
	if bound := float64(names + labels + 128); allocs > bound {
		t.Fatalf("ReadBasket made %.0f allocations on %d lines over %d names and %d labels, want at most %.0f",
			allocs, lines, names, labels, bound)
	}
}

// TestReadBasketTransactionsDoNotAlias appends to every transaction of a
// parse that spans several blocks and checks that the next one, empty or
// not, in the same block or across a block boundary, is unchanged.
func TestReadBasketTransactionsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var in []byte
	for i := 0; i < 20_000; i++ {
		in = append(in, 'l')
		for k := rng.Intn(8); k > 0; k-- {
			in = fmt.Appendf(in, " i%d", rng.Intn(50))
		}
		in = append(in, '\n')
	}
	d, err := ReadBasket(bytes.NewReader(in), BasketOptions{FirstTokenIsLabel: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Transaction, len(d.Trans))
	for i, tr := range d.Trans {
		want[i] = tr.Clone()
	}
	boundaries := 0
	for i := 0; i+1 < len(d.Trans); i++ {
		a, b := d.Trans[i], d.Trans[i+1]
		if len(a) > 0 && len(b) > 0 && reflect.ValueOf(a).Pointer()+uintptr(4*len(a)) != reflect.ValueOf(b).Pointer() {
			boundaries++
		}
		_ = append(a, -1)
		if !reflect.DeepEqual(b, want[i+1]) {
			t.Fatalf("appending to transaction %d changed transaction %d: %v, was %v", i, i+1, b, want[i+1])
		}
	}
	if boundaries < 2 {
		t.Fatalf("the parse crossed %d block boundaries, want at least 2", boundaries)
	}
}

// hubBasketText writes n baskets in the shape of perfbench's
// sampled-baskets input: each labelled with one of 500 templates of 15
// items and drawing 12 distinct items, each a hub (one of 15) with
// chance 0.15.
func hubBasketText(n int, seed int64) []byte {
	const templates, templateItems, basketItems, hubs, hubRate = 500, 15, 12, 15, 0.15
	rng := rand.New(rand.NewSource(seed))
	used := make([]bool, templateItems+hubs)
	var b []byte
	for i := 0; i < n; i++ {
		t := int64(rng.Intn(templates))
		clear(used)
		b = append(b, 't')
		b = strconv.AppendInt(b, t, 10)
		for k := 0; k < basketItems; k++ {
			var j int
			for {
				if rng.Float64() < hubRate {
					j = templateItems + rng.Intn(hubs)
				} else {
					j = rng.Intn(templateItems)
				}
				if !used[j] {
					break
				}
			}
			used[j] = true
			if j >= templateItems {
				b = append(b, " h"...)
				b = strconv.AppendInt(b, int64(j-templateItems), 10)
			} else {
				b = append(b, " t"...)
				b = strconv.AppendInt(b, t, 10)
				b = append(b, 'i')
				b = strconv.AppendInt(b, int64(j), 10)
			}
		}
		b = append(b, '\n')
	}
	return b
}

// BenchmarkReadBasket parses 100,000 hub baskets, label first; run it with
// -benchmem for the allocations a parse makes.
func BenchmarkReadBasket(b *testing.B) {
	in := hubBasketText(100_000, 1)
	b.SetBytes(int64(len(in)))
	for b.Loop() {
		if _, err := ReadBasket(bytes.NewReader(in), BasketOptions{FirstTokenIsLabel: true}); err != nil {
			b.Fatal(err)
		}
	}
}
