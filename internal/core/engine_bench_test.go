package core

import (
	"strconv"
	"testing"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// benchLinkTable builds the link table of an n-point basket workload with
// enough clusters that cluster degree stays realistic as n grows.
func benchLinkTable(b *testing.B, n int) *linkage.Compact {
	b.Helper()
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        n / 100,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            1,
	})
	nb := similarity.ComputeIndexed(d.Trans, 0.6, similarity.Options{})
	return linkage.Build(nb, linkage.Options{})
}

func benchAgglomerate(b *testing.B, engine func(n int, lt *linkage.Compact, k int, f float64) engineResult) {
	for _, n := range []int{1000, 10000} {
		lt := benchLinkTable(b, n)
		k := n / 100
		f := MarketBasketF(0.6)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine(n, lt, k, f)
			}
		})
	}
}

// BenchmarkAgglomerateMap times the reference map-based engine.
func BenchmarkAgglomerateMap(b *testing.B) {
	benchAgglomerate(b, func(n int, lt *linkage.Compact, k int, f float64) engineResult {
		return agglomerateMap(n, lt, k, rockGoodness, f, 0, 0, false)
	})
}

// BenchmarkAgglomerateArena times the production arena engine, on the
// GoodnessROCK power table the pipeline runs, on the identical workload;
// the oracle test guarantees identical output.
func BenchmarkAgglomerateArena(b *testing.B) {
	benchAgglomerate(b, func(n int, lt *linkage.Compact, k int, f float64) engineResult {
		return agglomerate(n, lt, k, GoodnessROCK, f, 0, 0, false)
	})
}
