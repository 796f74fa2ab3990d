package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
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

// randomNeighborLists draws up to 2n pairs into the lists of n points,
// each pair into both of its points' lists, so the lists are symmetric
// as the link layer requires: short lists, some holding their own
// point, so the link graph keeps several components and a list often
// names a point its owner is not linked to.
func randomNeighborLists(r *rand.Rand, n int) *similarity.Neighbors {
	nb := &similarity.Neighbors{Lists: make([][]int32, n)}
	for e := r.Intn(2 * n); e > 0; e-- {
		l, j := r.Intn(n), r.Intn(n)
		if r.Intn(8) == 0 {
			j = l
		}
		nb.Lists[l] = append(nb.Lists[l], int32(j))
		if j != l {
			nb.Lists[j] = append(nb.Lists[j], int32(l))
		}
	}
	for l, list := range nb.Lists {
		slices.Sort(list)
		nb.Lists[l] = slices.Compact(list)
	}
	return nb
}

// TestMergePhaseComponentsOracle proves mergePhase's components path
// equal, field by field, to the arena's merge loop over the same slots,
// on random neighbor lists and the link table they build, singleton and
// seeded slot maps, all three goodness kinds at exponents whose ROCK
// expectation is positive, zero and negative, and K and the weed
// trigger on both sides of the component count c. mergePhase counts c
// from the lists; the test counts it by flood fill over the built table.
// The path must apply exactly when tracing is off, c ≥ K and weeding
// cannot fire, and both sides of that rule must see a few hundred
// cases. On either side the link pairs and entries mergePhase records
// must be the table's.
func TestMergePhaseComponentsOracle(t *testing.T) {
	applied, declined := 0, 0
	for seed := int64(0); seed < 3000; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(80)
		nb := randomNeighborLists(r, n)
		lt := linkage.Build(nb, linkage.Options{})
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

		var stats Stats
		got, err := mergePhase(nb, slotOf, slots, cfg, &stats)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if stats.LinkPairs != lt.Pairs() || stats.LinkEntries != int64(lt.Entries()) {
			t.Fatalf("%s: %d link pairs, %d entries; the table has %d and %d",
				label, stats.LinkPairs, stats.LinkEntries, lt.Pairs(), lt.Entries())
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

// pipelineComponents returns the component count c of the slot link
// graph cluster's merge phase sees for ts, seed and cfg, and the slot
// count: phases 1–3 run as cluster runs them, and c is counted by flood
// fill over the link table built from the kept points' lists.
func pipelineComponents(ts []dataset.Transaction, seed [][]int, cfg Config) (c, slots int) {
	cfg = cfg.withDefaults()
	n := len(ts)
	groupOf, err := seedGroups(seed, n)
	if err != nil {
		panic(err)
	}
	local := ts
	if cfg.SampleSize > 0 && cfg.SampleSize < n {
		sample := SampleIndices(n, cfg.SampleSize, rand.New(rand.NewSource(cfg.Seed)))
		local = make([]dataset.Transaction, len(sample))
		for i, j := range sample {
			local[i] = ts[j]
		}
	}
	nb := neighborPhase(local, cfg, &Stats{})
	kept, _ := pruneByDegree(nb, cfg.MinNeighbors, groupOf)
	slotOf, slots := seedSlots(kept, len(seed), groupOf)
	lt := linkage.Build(filterNeighbors(nb, kept), linkage.Options{})
	return slotComponents(lt, slotOf, slots), slots
}

// TestClusterComponentsPathOracle runs the whole pipeline on random
// inputs and configs twice: as it ships, and with forceLinkTable, which
// builds the link table and runs the arena whatever the component count.
// The two must return reflect.DeepEqual Results, Stats.LinkPairs and
// LinkEntries included, or the same error. The configs cover sampling,
// pruning, weeding, TraceMerges, LabelOutliers, IncludeSelf, seeds
// through ClusterSeeded, every Goodness and Measure, Workers 1, 2, 4 and
// 8, and power tables that overflow. K and the weed trigger are drawn
// around the component count, counted by flood fill over the built
// table, and both sides of the components rule must see a few hundred
// runs.
func TestClusterComponentsPathOracle(t *testing.T) {
	applied, declined, failed := 0, 0, 0
	for trial := int64(0); trial < 1200; trial++ {
		r := rand.New(rand.NewSource(trial))
		ts, _ := groupedData(1+r.Intn(4), 4+r.Intn(20), trial)
		ts = append(ts, randomTransactionsCore(r, r.Intn(30), 6, 40)...)
		n := len(ts)
		cfg := Config{
			Theta:         []float64{0.2, 0.3, 0.4, 0.5, 0.6}[r.Intn(5)],
			Measure:       similarity.Measure(r.Intn(4)),
			Goodness:      Goodness(r.Intn(3)),
			IncludeSelf:   r.Intn(2) == 0,
			LabelOutliers: r.Intn(3) == 0,
			Workers:       []int{1, 2, 4, 8}[r.Intn(4)],
			Seed:          trial,
		}
		if r.Intn(3) == 0 {
			cfg.MinNeighbors = 1 + r.Intn(3)
		}
		var seed [][]int
		switch {
		case trial%3 == 2:
			seed = randomSeed(r, n, 4)
		case r.Intn(2) == 0:
			cfg.SampleSize = n/2 + r.Intn(n/2)
		}
		cfg.TraceMerges = seed == nil && r.Intn(8) == 0
		if r.Intn(25) == 0 {
			cfg.F = ConstantF(1000) // GoodnessROCK's power table overflows
		}
		c, slots := pipelineComponents(ts, seed, cfg)
		cfg.K = max(1, c-1+r.Intn(3)) // c−1, c or c+1
		if r.Intn(4) == 0 {
			cfg.K = 1 + r.Intn(c+2)
		}
		trigger := 0
		if slots > 0 && r.Intn(3) == 0 {
			target := max(1, c-1+r.Intn(3)) // trigger at c−1, c or c+1
			cfg.WeedAt = min(1, float64(target)/float64(slots))
			cfg.WeedMaxSize = 1 + r.Intn(3)
			trigger = max(int(math.Ceil(cfg.WeedAt*float64(slots))), cfg.K)
		}
		label := fmt.Sprintf("trial=%d n=%d slots=%d c=%d cfg=%+v seed=%v", trial, n, slots, c, cfg, seed)

		run := func(cfg Config) (*Result, error) {
			if seed != nil {
				return ClusterSeeded(ts, seed, cfg)
			}
			return Cluster(ts, cfg)
		}
		got, gotErr := run(cfg)
		forced := cfg
		forced.forceLinkTable = true
		want, wantErr := run(forced)
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, with the table %v", label, gotErr, wantErr)
		}
		if gotErr != nil {
			failed++
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: results differ\ngot:   %+v\ntable: %+v", label, got, want)
		}
		if !cfg.TraceMerges && c >= cfg.K && (trigger == 0 || c > trigger) {
			applied++
		} else {
			declined++
		}
	}
	t.Logf("components path applied in %d runs, declined in %d; %d runs failed alike", applied, declined, failed)
	if applied < 300 || declined < 300 || failed == 0 {
		t.Fatalf("components path applied in %d runs and declined in %d, %d failed; want at least 300 each and a failure",
			applied, declined, failed)
	}
}
