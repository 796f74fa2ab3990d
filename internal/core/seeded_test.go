package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
)

// TestClusterSeededEmptySeedOracle proves the degenerate case: with no
// seed groups every point starts as a singleton, so ClusterSeeded must
// reproduce Cluster byte-for-byte — same clusters, same outliers, same
// stats — across pruning, weeding, and labeling configurations.
func TestClusterSeededEmptySeedOracle(t *testing.T) {
	ts, _ := groupedData(3, 40, 7)
	for j := 0; j < 4; j++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(2000+10*j), dataset.Item(2001+10*j)))
	}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Theta: 0.3, K: 3, Seed: 1}},
		{"pruned", Config{Theta: 0.3, K: 3, MinNeighbors: 2, Seed: 2}},
		{"weeded", Config{Theta: 0.3, K: 3, WeedAt: 0.5, WeedMaxSize: 2, Seed: 3}},
		{"label-outliers", Config{Theta: 0.3, K: 3, MinNeighbors: 2, LabelOutliers: true, Seed: 4}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := Cluster(ts, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ClusterSeeded(ts, nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seeded run with empty seed diverged from Cluster:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestClusterSeededPreservesGroups feeds a finished clustering back in as
// the seed: the engine starts at K groups, performs no merges, and
// returns the seed unchanged.
func TestClusterSeededPreservesGroups(t *testing.T) {
	ts, _ := groupedData(3, 40, 11)
	cfg := Config{Theta: 0.3, K: 3, Seed: 11}
	base, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterSeeded(ts, base.Clusters, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(ts))
	if res.Stats.Merges != 0 {
		t.Fatalf("seeding at K performed %d merges, want 0", res.Stats.Merges)
	}
	if !reflect.DeepEqual(res.Clusters, base.Clusters) {
		t.Fatalf("seed groups not preserved:\n got %v\nwant %v", res.Clusters, base.Clusters)
	}
}

// TestClusterSeededAbsorbsNewPoints is the incremental-refresh shape: the
// input is the old model's points plus fresh arrivals — some from known
// regimes, some from a brand-new one. Seeded agglomeration must fold the
// known-regime arrivals into their seed groups, form a new cluster for
// the new regime, and never split a seed group.
func TestClusterSeededAbsorbsNewPoints(t *testing.T) {
	ts, truth := groupedData(3, 40, 13)
	cfg := Config{Theta: 0.3, K: 3, Seed: 13}
	base, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Arrivals: 10 more from group 0 and a 20-point fourth regime.
	all := append([]dataset.Transaction(nil), ts...)
	more, moreTruth := groupedData(1, 10, 17)
	all = append(all, more...)
	truth = append(truth, moreTruth...) // group 0 again
	fresh, _ := groupedData(4, 20, 19)
	fresh = fresh[3*20:] // keep only the 4th regime's 20 points
	for range fresh {
		truth = append(truth, 3)
	}
	all = append(all, fresh...)

	res, err := ClusterSeeded(all, base.Clusters, Config{Theta: 0.3, K: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	checkPartition(t, res, len(all))
	if res.K() != 4 {
		t.Fatalf("found %d clusters, want 4", res.K())
	}
	// Every cluster pure w.r.t. truth, and every seed group intact inside
	// a single output cluster.
	for ci, members := range res.Clusters {
		g0 := truth[members[0]]
		for _, p := range members {
			if truth[p] != g0 {
				t.Fatalf("cluster %d mixes regimes %d and %d", ci, g0, truth[p])
			}
		}
	}
	for gi, group := range base.Clusters {
		ci := res.Assign[group[0]]
		for _, p := range group {
			if res.Assign[p] != ci {
				t.Fatalf("seed group %d split: point %d in cluster %d, point %d in cluster %d",
					gi, group[0], ci, p, res.Assign[p])
			}
		}
	}
	// The fresh regime formed its own cluster.
	base3 := len(ts) + 10
	ci := res.Assign[base3]
	if ci < 0 {
		t.Fatalf("fresh-regime point %d left outlier", base3)
	}
	for p := base3; p < len(all); p++ {
		if res.Assign[p] != ci {
			t.Fatalf("fresh regime split across clusters %d and %d", ci, res.Assign[p])
		}
	}
}

// TestClusterSeededValidation exercises every rejection path.
func TestClusterSeededValidation(t *testing.T) {
	ts, _ := groupedData(2, 10, 3)
	ok := Config{Theta: 0.3, K: 2, Seed: 3}
	cases := []struct {
		name string
		seed [][]int
		cfg  Config
		want string
	}{
		{"sampling", nil, Config{Theta: 0.3, K: 2, SampleSize: 5}, "does not sample"},
		{"tracing", nil, Config{Theta: 0.3, K: 2, TraceMerges: true}, "cannot trace"},
		{"empty-group", [][]int{{0, 1}, {}}, ok, "group 1 is empty"},
		{"out-of-range", [][]int{{0, len(ts)}}, ok, "outside the input"},
		{"negative", [][]int{{-1}}, ok, "outside the input"},
		{"overlap", [][]int{{0, 1}, {1, 2}}, ok, "more than one seed group"},
		{"bad-theta", nil, Config{Theta: 2, K: 2}, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ClusterSeeded(ts, tc.seed, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestClusterSeededAllPruned drives the degenerate arena with zero slots:
// every point unseeded and below MinNeighbors.
func TestClusterSeededAllPruned(t *testing.T) {
	var ts []dataset.Transaction
	for j := 0; j < 5; j++ {
		ts = append(ts, dataset.NewTransaction(dataset.Item(100*j), dataset.Item(100*j+1)))
	}
	res, err := ClusterSeeded(ts, nil, Config{Theta: 0.5, K: 2, MinNeighbors: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 0 || len(res.Outliers) != len(ts) {
		t.Fatalf("got %d clusters, %d outliers; want 0 clusters, all outliers", res.K(), len(res.Outliers))
	}
}

// TestModelLabeledGroups round-trips a frozen model's labeled points into
// ClusterSeeded — the exact hand-off the incremental refresh performs —
// and checks the accessor's copies are detached from the model.
func TestModelLabeledGroups(t *testing.T) {
	ts, _ := groupedData(3, 40, 5)
	cfg := Config{Theta: 0.3, K: 3, Seed: 5, LabelFraction: 1, MaxLabelPoints: 20}
	res, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Freeze(ts, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pts, groups := m.LabeledGroups()
	if len(groups) != m.K() {
		t.Fatalf("%d groups for a k=%d model", len(groups), m.K())
	}
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != m.LabeledPoints() || len(pts) != m.LabeledPoints() {
		t.Fatalf("groups cover %d of %d labeled points (len(pts)=%d)", total, m.LabeledPoints(), len(pts))
	}

	// Mutating the returned slices must not corrupt the model.
	groups[0] = append(groups[0], -99)
	pts2, groups2 := m.LabeledGroups()
	if len(groups2[0]) == len(groups[0]) {
		t.Fatal("LabeledGroups returned aliased group slices")
	}
	groups[0] = groups[0][:len(groups[0])-1]
	_ = pts2

	// The hand-off itself: seeded re-cluster of reps + fresh arrivals.
	arrivals, _ := groupedData(1, 8, 23)
	input := append(append([]dataset.Transaction(nil), pts...), arrivals...)
	res2, err := ClusterSeeded(input, groups, Config{Theta: 0.3, K: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.K() != 3 {
		t.Fatalf("seeded re-cluster found %d clusters, want 3", res2.K())
	}
	for gi, g := range groups {
		ci := res2.Assign[g[0]]
		for _, p := range g {
			if res2.Assign[p] != ci {
				t.Fatalf("model group %d split in seeded re-cluster", gi)
			}
		}
	}
}

// foldLinksMap is the seed fold as first written: point-level links summed
// into one map per initial slot, then compacted through a map-based
// linkage.Table. It is the oracle for the fold newArena performs while
// building its rows.
func foldLinksMap(plt *linkage.Compact, slotOf []int32, slots int) (*linkage.Compact, error) {
	acc := make([]map[int32]int64, slots)
	for l := range slotOf {
		ci := slotOf[l]
		plt.Row(l, func(j, cnt int) {
			cj := slotOf[j]
			if cj == ci {
				return
			}
			if acc[ci] == nil {
				acc[ci] = make(map[int32]int64)
			}
			acc[ci][cj] += int64(cnt)
		})
	}
	tab := &linkage.Table{Adj: make([]map[int32]int32, slots)}
	for i := range tab.Adj {
		row := make(map[int32]int32, len(acc[i]))
		for j, c := range acc[i] {
			if c > math.MaxInt32 {
				return nil, fmt.Errorf("core: aggregated cross-link count %d between seed clusters exceeds 2^31", c)
			}
			row[j] = int32(c)
		}
		tab.Adj[i] = row
	}
	return linkage.CompactFrom(tab), nil
}

// randomSeed draws up to maxGroups disjoint, non-empty seed groups over n
// points, leaving some points unseeded.
func randomSeed(r *rand.Rand, n, maxGroups int) [][]int {
	perm := r.Perm(n)
	seed := make([][]int, 1+r.Intn(maxGroups))
	for _, p := range perm[:n*2/3] {
		gi := r.Intn(len(seed))
		seed[gi] = append(seed[gi], p)
	}
	var out [][]int
	for _, g := range seed {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// TestSeedFoldOracle proves the arena's CSR fold — point links summed
// per initial slot straight into the arena's rows — identical to the
// map-based fold on random seeds over real pipeline links, with pruning
// on and off. It also checks every slot's member chain lists exactly its
// points and that each cached best is the row's best.
func TestSeedFoldOracle(t *testing.T) {
	for trial := int64(0); trial < 40; trial++ {
		r := rand.New(rand.NewSource(trial))
		ts, _ := groupedData(2+r.Intn(3), 15+r.Intn(20), trial)
		ts = append(ts, randomTransactionsCore(r, r.Intn(20), 6, 60)...)
		n := len(ts)
		seed := randomSeed(r, n, 5)
		minNeighbors := 0
		if trial%2 == 1 {
			minNeighbors = 1 + r.Intn(4)
		}
		theta := 0.2 + 0.4*r.Float64()
		label := fmt.Sprintf("trial=%d n=%d groups=%d min=%d theta=%.2f", trial, n, len(seed), minNeighbors, theta)

		groupOf, err := seedGroups(seed, n)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		nb := similarity.ComputeIndexed(ts, theta, similarity.Options{IncludeSelf: trial%3 == 0})
		kept, _ := pruneByDegree(nb, minNeighbors, groupOf)
		plt := linkage.Build(filterNeighbors(nb, kept), linkage.Options{})
		slotOf, slots := seedSlots(kept, len(seed), groupOf)

		a, err := newArena(plt, slotOf, slots, GoodnessROCK, MarketBasketF(theta))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := foldLinksMap(plt, slotOf, slots)
		if err != nil {
			t.Fatalf("%s: oracle: %v", label, err)
		}
		if want.Len() != slots {
			t.Fatalf("%s: oracle has %d slots, arena %d", label, want.Len(), slots)
		}
		for s := 0; s < slots; s++ {
			var wantRow []linkEntry
			want.Row(s, func(j, cnt int) { wantRow = append(wantRow, linkEntry{to: int32(j), cnt: int32(cnt)}) })
			if !slices.Equal(a.rows[s], wantRow) {
				t.Fatalf("%s: slot %d row %v, map fold %v", label, s, a.rows[s], wantRow)
			}
			var members, wantMembers []int32
			for p := a.head[s]; p >= 0; p = a.next[p] {
				members = append(members, p)
			}
			for p, ps := range slotOf {
				if int(ps) == s {
					wantMembers = append(wantMembers, int32(p))
				}
			}
			if !slices.Equal(members, wantMembers) || int(a.size[s]) != len(wantMembers) || a.tail[s] != wantMembers[len(wantMembers)-1] {
				t.Fatalf("%s: slot %d chain %v (size %d), want %v", label, s, members, a.size[s], wantMembers)
			}
			bt, bg := a.bestTo[s], a.bestG[s]
			a.rescanBest(int32(s))
			if a.bestTo[s] != bt || a.bestG[s] != bg {
				t.Fatalf("%s: slot %d cached best %d/%g, rescan %d/%g", label, s, bt, bg, a.bestTo[s], a.bestG[s])
			}
		}
	}
}

// TestSeedFoldOverflow: a folded cross-link count past int32 must fail
// with an error, never wrap into a corrupt goodness value. The merge
// phase's arena fails the same way, at K above the one component; at
// K = 1 the merge phase returns that component from the lists, builds
// no table and reads no count.
func TestSeedFoldOverflow(t *testing.T) {
	lt := tableFromPairs(3, map[[2]int]int{{0, 2}: 1 << 30, {1, 2}: 1 << 30})
	if _, err := newArena(lt, []int32{0, 0, 1}, 2, GoodnessROCK, 0.5); err == nil || !strings.Contains(err.Error(), "exceeds 2^31") {
		t.Fatalf("err = %v, want the 2^31 overflow error", err)
	}
	if _, err := foldLinksMap(lt, []int32{0, 0, 1}, 2); err == nil {
		t.Fatal("oracle fold accepted the overflowing count")
	}
	cfg := Config{K: 2, F: ConstantF(0.5)}.withDefaults()
	if _, err := arenaMerge(lt, []int32{0, 0, 1}, 2, cfg, 0); err == nil || !strings.Contains(err.Error(), "exceeds 2^31") {
		t.Fatalf("arena merge at K=2: err = %v, want the 2^31 overflow error", err)
	}
	cfg.K = 1
	// Each point lists the other two: the links 0–2 and 1–2 of lt, and
	// 0–1 inside slot 0.
	nb := &similarity.Neighbors{Lists: [][]int32{{1, 2}, {0, 2}, {0, 1}}}
	var stats Stats
	res, err := mergePhase(nb, []int32{0, 0, 1}, 2, cfg, &stats)
	if err != nil || !reflect.DeepEqual(res.clusters, [][]int{{0, 1, 2}}) || res.merges != 1 || res.stoppedEarly {
		t.Fatalf("merge phase at K=1: %+v, %v; want the one component after one merge", res, err)
	}
	if stats.LinkPairs != 3 || stats.LinkEntries != 6 {
		t.Fatalf("merge phase at K=1: %d link pairs, %d entries; want 3 and 6", stats.LinkPairs, stats.LinkEntries)
	}
	lt = tableFromPairs(3, map[[2]int]int{{0, 2}: 1 << 30, {1, 2}: 1<<30 - 1})
	if _, err := newArena(lt, []int32{0, 0, 1}, 2, GoodnessROCK, 0.5); err != nil {
		t.Fatalf("count at the int32 boundary rejected: %v", err)
	}
}
