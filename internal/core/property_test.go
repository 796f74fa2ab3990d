package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/linkage"
)

// randomLinkTable builds a random symmetric CSR link table over n points.
func randomLinkTable(r *rand.Rand, n int) *linkage.Compact {
	t := &linkage.Table{Adj: make([]map[int32]int32, n)}
	for i := 0; i < n; i++ {
		t.Adj[i] = make(map[int32]int32)
	}
	pairs := r.Intn(n * 2)
	for p := 0; p < pairs; p++ {
		i, j := r.Intn(n), r.Intn(n)
		if i == j {
			continue
		}
		c := int32(1 + r.Intn(5))
		t.Adj[i][int32(j)] = c
		t.Adj[j][int32(i)] = c
	}
	return linkage.CompactFrom(t)
}

// Engine invariants over random link structures: the output partitions
// the points, weeded points never appear in clusters, the merge count
// accounts for the cluster count, and reruns are identical.
func TestAgglomerateInvariantsQuick(t *testing.T) {
	type inputs struct {
		n, k, weedTrigger, weedMaxSize int
		table                          *linkage.Compact
	}
	cfg := &quick.Config{
		MaxCount: 120,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := 1 + r.Intn(40)
			in := inputs{
				n:     n,
				k:     1 + r.Intn(5),
				table: randomLinkTable(r, n),
			}
			if r.Intn(2) == 0 {
				in.weedTrigger = 1 + r.Intn(n)
				in.weedMaxSize = 1 + r.Intn(3)
			}
			vals[0] = reflect.ValueOf(in)
		},
	}
	prop := func(in inputs) bool {
		res := agglomerate(in.n, in.table, in.k, GoodnessROCK, 0.3, in.weedTrigger, in.weedMaxSize, true)

		seen := make([]bool, in.n)
		clustered := 0
		for _, members := range res.clusters {
			last := -1
			for _, p := range members {
				if p <= last || p < 0 || p >= in.n || seen[p] {
					return false // unsorted, out of range, or duplicated
				}
				last = p
				seen[p] = true
				clustered++
			}
		}
		for _, p := range res.weeded {
			if seen[p] {
				return false // weeded point also clustered
			}
			seen[p] = true
		}
		for _, s := range seen {
			if !s {
				return false // point lost
			}
		}
		// Merges: n points collapse into len(clusters) clusters plus
		// weeded groups; every merge reduces the count by one.
		if res.merges != len(res.trace) {
			return false
		}
		if clustered+len(res.weeded) != in.n {
			return false
		}
		// Determinism.
		rerun := agglomerate(in.n, in.table, in.k, GoodnessROCK, 0.3, in.weedTrigger, in.weedMaxSize, true)
		return reflect.DeepEqual(rerun.clusters, res.clusters) &&
			reflect.DeepEqual(rerun.weeded, res.weeded) &&
			reflect.DeepEqual(rerun.trace, res.trace)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// Pipeline invariants over random transactions and configurations.
func TestClusterInvariantsQuick(t *testing.T) {
	type inputs struct {
		ts  []dataset.Transaction
		cfg Config
	}
	cfg := &quick.Config{
		MaxCount: 60,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			n := r.Intn(60)
			ts := make([]dataset.Transaction, n)
			for i := range ts {
				items := make([]dataset.Item, r.Intn(7))
				for k := range items {
					items[k] = dataset.Item(r.Intn(20))
				}
				ts[i] = dataset.NewTransaction(items...)
			}
			c := Config{
				Theta: float64(r.Intn(10)) / 10,
				K:     1 + r.Intn(4),
				Seed:  r.Int63(),
			}
			if r.Intn(2) == 0 {
				c.SampleSize = 1 + r.Intn(n+1)
			}
			if r.Intn(2) == 0 {
				c.MinNeighbors = r.Intn(3)
			}
			if r.Intn(3) == 0 {
				c.WeedAt = 0.1 + 0.4*r.Float64()
			}
			if r.Intn(2) == 0 {
				c.LabelOutliers = true
			}
			vals[0] = reflect.ValueOf(inputs{ts, c})
		},
	}
	prop := func(in inputs) bool {
		res, err := Cluster(in.ts, in.cfg)
		if err != nil {
			return false
		}
		n := len(in.ts)
		seen := make([]int, n)
		for ci, members := range res.Clusters {
			if len(members) == 0 {
				return false // empty cluster emitted
			}
			for _, p := range members {
				if p < 0 || p >= n || seen[p] != 0 {
					return false
				}
				seen[p] = 1
				if res.Assign[p] != ci {
					return false
				}
			}
		}
		for _, p := range res.Outliers {
			if seen[p] != 0 || res.Assign[p] != -1 {
				return false
			}
			seen[p] = 2
		}
		for _, s := range seen {
			if s == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
