package core

import (
	"testing"

	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/synth"
)

// TestEngineWorkCounts pins the merge work — full row rescans and the
// entries they read — on two fixed inputs. The counts are deterministic,
// so an algorithmic regression (say, a best-partner repair that falls
// back to whole-row rescans) fails here without a wall-clock threshold.
// On the dense planted-label input every patched neighbor is repaired
// from its runner-up bound: the only rescans are the initial best of
// each slot and the merged row of each merge.
func TestEngineWorkCounts(t *testing.T) {
	baskets := synth.Basket(synth.BasketConfig{Transactions: 500, Clusters: 5, TemplateItems: 15, TransactionSize: 12, Seed: 1})
	sparse := linkage.Build(similarity.ComputeIndexed(baskets.Trans, 0.6, similarity.Options{}), linkage.Options{})
	cases := []struct {
		name             string
		lt               *linkage.Compact
		k                int
		f                float64
		merges           int
		rescans, scanned int
		onlyBestRescans  bool
	}{
		{"dense-labels n=300", denseLabelsTable(300, 1), 4, MarketBasketF(0.5), 296, 596, 33002, true},
		{"sparse-baskets n=500", sparse, 5, MarketBasketF(0.6), 388, 1359, 14866, false},
	}
	for _, c := range cases {
		n := c.lt.Len()
		res := agglomerate(n, c.lt, c.k, nil, c.f, 0, 0, false)
		if res.merges != c.merges || res.rescans != c.rescans || res.scanned != c.scanned {
			t.Errorf("%s: merges %d rescans %d scanned %d, want %d %d %d",
				c.name, res.merges, res.rescans, res.scanned, c.merges, c.rescans, c.scanned)
		}
		if c.onlyBestRescans && res.rescans != n+res.merges {
			t.Errorf("%s: %d rescans, want slots + merges = %d", c.name, res.rescans, n+res.merges)
		}
	}
}
