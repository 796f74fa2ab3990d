package rock_test

// One benchmark per table and figure of the paper's evaluation (E1..E8)
// and per ablation or extension (A1..A6) — the experiment ids
// `rockbench -list` prints — each regenerating its experiment
// through the harness in quick mode — run `cmd/rockbench` for the
// paper-scale tables. Micro-benchmarks for the pipeline stages follow.

import (
	"bytes"
	"io"
	"runtime"
	"strconv"
	"testing"

	"github.com/rockclust/rock"
	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/expt"
	"github.com/rockclust/rock/internal/linkage"
	"github.com/rockclust/rock/internal/similarity"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := expt.Run(id, io.Discard, expt.Options{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1VotesTraditional(b *testing.B)    { benchExperiment(b, "E1") }
func BenchmarkE2VotesROCK(b *testing.B)           { benchExperiment(b, "E2") }
func BenchmarkE3MushroomTraditional(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4MushroomROCK(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5Funds(b *testing.B)               { benchExperiment(b, "E5") }
func BenchmarkE6ScaleUp(b *testing.B)             { benchExperiment(b, "E6") }
func BenchmarkE7SampleQuality(b *testing.B)       { benchExperiment(b, "E7") }
func BenchmarkE8Motivating(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkA1GoodnessAblation(b *testing.B)    { benchExperiment(b, "A1") }
func BenchmarkA2QROCK(b *testing.B)               { benchExperiment(b, "A2") }
func BenchmarkA3FTheta(b *testing.B)              { benchExperiment(b, "A3") }
func BenchmarkA4Outliers(b *testing.B)            { benchExperiment(b, "A4") }
func BenchmarkA5STIRR(b *testing.B)               { benchExperiment(b, "A5") }
func BenchmarkA6LSHNeighbors(b *testing.B)        { benchExperiment(b, "A6") }

// --- pipeline-stage micro-benchmarks ---

func benchBasket(n int) *rock.Dataset {
	return rock.GenerateBasket(rock.BasketConfig{
		Transactions:    n,
		Clusters:        10,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            1,
	})
}

func BenchmarkJaccard(b *testing.B) {
	d := benchBasket(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rock.Jaccard(d.Trans[i%32], d.Trans[32+i%32])
	}
}

func BenchmarkNeighborsIndexed(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		d := benchBasket(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				similarity.ComputeIndexed(d.Trans, 0.6, similarity.Options{})
			}
		})
	}
}

func BenchmarkNeighborsBrute(b *testing.B) {
	d := benchBasket(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.Compute(d.Trans, 0.6, similarity.Options{})
	}
}

func BenchmarkNeighborsLSH(b *testing.B) {
	for _, n := range []int{1000, 2000} {
		d := benchBasket(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				similarity.ComputeLSH(d.Trans, 0.6, similarity.LSHOptions{Seed: 1})
			}
		})
	}
}

func BenchmarkLinksParallel(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	for _, n := range []int{1000, 2000} {
		d := benchBasket(n)
		nb := similarity.ComputeIndexed(d.Trans, 0.6, similarity.Options{})
		for _, w := range workerCounts {
			b.Run(sizeName(n)+"/workers="+strconv.Itoa(w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					linkage.FromNeighborsCSR(nb, w)
				}
			})
		}
	}
}

// benchAssignFixture freezes a model from the labeling workload and
// returns it with the out-of-sample points as queries — the serving
// workload shared with the `rockbench -serve` sweep (see
// expt.LabelFixture).
func benchAssignFixture(b *testing.B, n int) (*rock.Model, []rock.Transaction) {
	b.Helper()
	ts, candidates, sets, err := expt.LabelFixture(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.FreezeSets(ts, sets, nil, 0.6, rock.MarketBasketF(0.6), nil)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]rock.Transaction, len(candidates))
	for i, p := range candidates {
		queries[i] = ts[p]
	}
	return m, queries
}

func BenchmarkAssign(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		m, queries := benchAssignFixture(b, n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.AssignBatch(queries, 1)
			}
		})
	}
}

func BenchmarkAssignParallel(b *testing.B) {
	workerCounts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		workerCounts = append(workerCounts, g)
	}
	for _, n := range []int{2000, 10000} {
		m, queries := benchAssignFixture(b, n)
		for _, w := range workerCounts {
			b.Run(sizeName(n)+"/workers="+strconv.Itoa(w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.AssignBatch(queries, w)
				}
			})
		}
	}
}

func BenchmarkModelSaveLoad(b *testing.B) {
	m, _ := benchAssignFixture(b, 2000)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := m.Save(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkClusterPipeline(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		d := benchBasket(n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.6, K: 10, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkClusterPipelineWorkers runs the full pipeline across worker
// counts. workers=1 is the all-serial baseline; workers≥2 shard the
// neighbor and link phases. Output is byte-identical across worker
// counts; only wall-clock may differ.
func BenchmarkClusterPipelineWorkers(b *testing.B) {
	d := benchBasket(2000)
	for _, w := range []int{1, 2, 4} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			cfg := rock.Config{Theta: 0.6, K: 10, Seed: 1, Workers: w}
			for i := 0; i < b.N; i++ {
				if _, err := rock.Cluster(d.Trans, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClusterSampled(b *testing.B) {
	d := benchBasket(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.6, K: 10, SampleSize: 1000, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRock(b *testing.B) {
	d := benchBasket(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rock.QRock(d.Trans, rock.QRockConfig{Theta: 0.6}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHierarchicalBaseline(b *testing.B) {
	d := benchBasket(400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rock.Hierarchical(d.Trans, rock.HierarchicalConfig{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKModesBaseline(b *testing.B) {
	d := rock.GenerateLabeled(rock.LabeledConfig{Records: 1000, Classes: 10, Seed: 1})
	records := rock.RecordsOf(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rock.KModes(records, rock.KModesConfig{K: 10, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string { return "n=" + strconv.Itoa(n) }
