package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/rockclust/rock/internal/linkage"
)

// slotComponents counts the connected components of the slot link graph
// by flood fill over points, a point reaching the points it links and
// the points of its own slot.
func slotComponents(lt *linkage.Compact, slotOf []int32, slots int) int {
	members := make([][]int, slots)
	for p, s := range slotOf {
		members[s] = append(members[s], p)
	}
	seen := make([]bool, len(slotOf))
	comps := 0
	for p0 := range slotOf {
		if seen[p0] {
			continue
		}
		comps++
		seen[p0] = true
		stack := []int{p0}
		visit := func(q int) {
			if !seen[q] {
				seen[q] = true
				stack = append(stack, q)
			}
		}
		for len(stack) > 0 {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, q := range members[slotOf[p]] {
				visit(q)
			}
			lt.Row(p, func(q, _ int) { visit(q) })
		}
	}
	return comps
}

// TestMergePhaseComponentsOracle proves mergePhase's components path
// equal, field by field, to the arena's merge loop over the same slots,
// on random link tables, singleton and seeded slot maps, all three
// goodness kinds at exponents whose ROCK expectation is positive, zero
// and negative, and K and the weed trigger on both sides of the
// component count c. The path must apply exactly when tracing is off,
// c ≥ K and weeding cannot fire, and both sides of that rule must see a
// few hundred cases.
func TestMergePhaseComponentsOracle(t *testing.T) {
	applied, declined := 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		lt := randomLinkTable(r, n)
		kept := make([]int, n)
		for i := range kept {
			kept[i] = i
		}
		var seedGroupsIn [][]int
		if seed%2 == 1 {
			seedGroupsIn = randomSeed(r, n, 5)
		}
		groupOf, err := seedGroups(seedGroupsIn, n)
		if err != nil {
			t.Fatal(err)
		}
		slotOf, slots := seedSlots(kept, len(seedGroupsIn), groupOf)
		c := slotComponents(lt, slotOf, slots)

		good := Goodness(seed % 3)
		f := []float64{MarketBasketF(0.05 + 0.9*r.Float64()), 0, -0.5, -2, 3}[(seed/3)%5]
		k := max(1, c-1+r.Intn(3)) // c−1, c or c+1
		if r.Intn(4) == 0 {
			k = 1 + r.Intn(c+2)
		}
		cfg := Config{K: k, Goodness: good, F: ConstantF(f), TraceMerges: seedGroupsIn == nil && seed%10 == 0}
		if r.Intn(3) > 0 {
			target := max(1, c-1+r.Intn(3)) // trigger at c−1, c or c+1
			cfg.WeedAt = min(1, float64(target)/float64(slots))
			cfg.WeedMaxSize = 1 + r.Intn(3)
		}
		cfg = cfg.withDefaults()
		weedTrigger := 0
		if cfg.WeedAt > 0 {
			weedTrigger = max(int(math.Ceil(cfg.WeedAt*float64(slots))), k)
		}
		label := fmt.Sprintf("seed=%d n=%d slots=%d c=%d k=%d goodness=%d f=%g weed=%d/%d trace=%v",
			seed, n, slots, c, k, good, f, weedTrigger, cfg.WeedMaxSize, cfg.TraceMerges)

		got, err := mergePhase(lt, slotOf, slots, cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		a, err := newArena(lt, slotOf, slots, good, f)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want := runAgglomeration(a, k, weedTrigger, cfg.WeedMaxSize, cfg.TraceMerges)
		checkResultsEqual(t, label, &got, &want)

		// The arena rescans every slot's row while it builds, so a result
		// with no rescans over a non-empty arena took the components path.
		rule := !cfg.TraceMerges && c >= k && (weedTrigger == 0 || c > weedTrigger)
		if took := slots > 0 && got.rescans == 0; took != rule {
			t.Fatalf("%s: components path taken=%v, rule says %v", label, took, rule)
		}
		if rule {
			applied++
		} else {
			declined++
		}
	}
	t.Logf("components path applied in %d cases, declined in %d", applied, declined)
	if applied < 300 || declined < 300 {
		t.Fatalf("components path applied in %d cases and declined in %d; want at least 300 each", applied, declined)
	}
}
