package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// Cluster output must be byte-identical for a fixed seed regardless of
// the worker count: parallelism in the neighbor and link phases must not
// leak into results. Checked both structurally and on serialized bytes.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	configs := []Config{
		{Theta: 0.5, K: 4, Seed: 11, TraceMerges: true},
		{Theta: 0.6, K: 3, Seed: 7, SampleSize: 150, MinNeighbors: 2, WeedAt: 0.3},
		{Theta: 0.3, K: 5, Seed: 23, LabelOutliers: true},
		// Every run takes the sharded CSR link builder, so link-phase
		// parallelism is exercised, not just the neighbor phase.
		{Theta: 0.5, K: 4, Seed: 13, TraceMerges: true},
		// labelSerialBelow: -1 forces candidate sharding in the labeling
		// phase even at this test's candidate count, so label-phase
		// parallelism is exercised alongside sampling.
		{Theta: 0.5, K: 4, Seed: 17, SampleSize: 120, labelSerialBelow: -1, LabelOutliers: true},
	}
	for ci, base := range configs {
		ts := randomTransactionsCore(r, 220, 7, 25)
		workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}

		var ref *Result
		var refBytes []byte
		for _, w := range workerCounts {
			cfg := base
			cfg.Workers = w
			res, err := Cluster(ts, cfg)
			if err != nil {
				t.Fatalf("config %d workers %d: %v", ci, w, err)
			}
			var buf bytes.Buffer
			if err := WriteResult(&buf, res); err != nil {
				t.Fatalf("config %d workers %d: serialize: %v", ci, w, err)
			}
			if ref == nil {
				ref, refBytes = res, buf.Bytes()
				continue
			}
			if !reflect.DeepEqual(res.Assign, ref.Assign) ||
				!reflect.DeepEqual(res.Clusters, ref.Clusters) ||
				!reflect.DeepEqual(res.Outliers, ref.Outliers) ||
				!reflect.DeepEqual(res.Stats, ref.Stats) ||
				!reflect.DeepEqual(res.MergeTrace, ref.MergeTrace) {
				t.Fatalf("config %d: workers=%d output differs structurally from workers=%d",
					ci, w, workerCounts[0])
			}
			if !bytes.Equal(buf.Bytes(), refBytes) {
				t.Fatalf("config %d: workers=%d serialized bytes differ from workers=%d",
					ci, w, workerCounts[0])
			}
		}
	}
}

// ChunkedCluster output must be byte-identical for a fixed seed
// regardless of the worker count — the scale-out variant inherits every
// parallel phase (neighbors, links, merges, labeling) through its
// per-chunk and representative runs, and none may leak into results.
func TestChunkedClusterDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	configs := []ChunkedConfig{
		{Base: Config{Theta: 0.5, K: 3, Seed: 5}, ChunkSize: 60},
		{Base: Config{Theta: 0.4, K: 4, Seed: 11, MinNeighbors: 1}, ChunkSize: 45, ChunkK: 6, Reps: 3},
		// Force the sharded label path inside every sub-run.
		{Base: Config{Theta: 0.5, K: 3, Seed: 23, labelSerialBelow: -1}, ChunkSize: 80},
	}
	for ci, base := range configs {
		ts := randomTransactionsCore(r, 260, 6, 22)
		var ref *Result
		var refBytes []byte
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			cfg := base
			cfg.Base.Workers = w
			res, err := ChunkedCluster(ts, cfg)
			if err != nil {
				t.Fatalf("config %d workers %d: %v", ci, w, err)
			}
			var buf bytes.Buffer
			if err := WriteResult(&buf, res); err != nil {
				t.Fatalf("config %d workers %d: serialize: %v", ci, w, err)
			}
			if ref == nil {
				ref, refBytes = res, buf.Bytes()
				// Determinism: an identical rerun must match byte for byte.
				rerun, err := ChunkedCluster(ts, cfg)
				if err != nil {
					t.Fatalf("config %d rerun: %v", ci, err)
				}
				var rbuf bytes.Buffer
				if err := WriteResult(&rbuf, rerun); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rbuf.Bytes(), refBytes) {
					t.Fatalf("config %d: rerun with identical config differs", ci)
				}
				continue
			}
			if !reflect.DeepEqual(res.Assign, ref.Assign) ||
				!reflect.DeepEqual(res.Clusters, ref.Clusters) ||
				!reflect.DeepEqual(res.Outliers, ref.Outliers) {
				t.Fatalf("config %d: workers=%d output differs structurally from workers=1", ci, w)
			}
			if !bytes.Equal(buf.Bytes(), refBytes) {
				t.Fatalf("config %d: workers=%d serialized bytes differ from workers=1", ci, w)
			}
		}
	}
}

// QRock output must be byte-identical for every worker count: its only
// parallel phase is the indexed neighbor computation, which must not
// reorder the union-find of components.
func TestQRockDeterministicAcrossWorkers(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	configs := []QRockConfig{
		{Theta: 0.5},
		{Theta: 0.35, MinClusterSize: 3},
		{Theta: 0.6, Measure: similarity.Dice},
	}
	for ci, base := range configs {
		ts := randomTransactionsCore(r, 300, 6, 20)
		var ref *Result
		var refBytes []byte
		for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
			cfg := base
			cfg.Workers = w
			res, err := QRock(ts, cfg)
			if err != nil {
				t.Fatalf("config %d workers %d: %v", ci, w, err)
			}
			var buf bytes.Buffer
			if err := WriteResult(&buf, res); err != nil {
				t.Fatalf("config %d workers %d: serialize: %v", ci, w, err)
			}
			if ref == nil {
				ref, refBytes = res, buf.Bytes()
				rerun, err := QRock(ts, cfg)
				if err != nil {
					t.Fatalf("config %d rerun: %v", ci, err)
				}
				var rbuf bytes.Buffer
				if err := WriteResult(&rbuf, rerun); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rbuf.Bytes(), refBytes) {
					t.Fatalf("config %d: rerun with identical config differs", ci)
				}
				continue
			}
			if !reflect.DeepEqual(res.Assign, ref.Assign) ||
				!reflect.DeepEqual(res.Clusters, ref.Clusters) ||
				!reflect.DeepEqual(res.Outliers, ref.Outliers) {
				t.Fatalf("config %d: workers=%d output differs structurally from workers=1", ci, w)
			}
			if !bytes.Equal(buf.Bytes(), refBytes) {
				t.Fatalf("config %d: workers=%d serialized bytes differ from workers=1", ci, w)
			}
		}
	}
}

// randomTransactionsCore mirrors the linkage test helper locally.
func randomTransactionsCore(r *rand.Rand, n, maxItems, vocab int) []dataset.Transaction {
	ts := make([]dataset.Transaction, n)
	for i := range ts {
		items := make([]dataset.Item, 1+r.Intn(maxItems))
		for k := range items {
			items[k] = dataset.Item(r.Intn(vocab))
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	return ts
}
