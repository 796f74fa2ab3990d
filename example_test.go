package rock_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"

	"github.com/rockclust/rock"
)

// ExampleCluster clusters eight hand-built transactions into the two
// groups their shared items imply. Two transactions are θ-neighbors when
// their Jaccard similarity reaches Theta; clusters merge by the paper's
// link-based goodness until K remain.
func ExampleCluster() {
	ts := []rock.Transaction{
		rock.NewTransaction(1, 2, 3),
		rock.NewTransaction(1, 2, 4),
		rock.NewTransaction(1, 3, 4),
		rock.NewTransaction(2, 3, 4),
		rock.NewTransaction(5, 6, 7),
		rock.NewTransaction(5, 6, 8),
		rock.NewTransaction(5, 7, 8),
		rock.NewTransaction(6, 7, 8),
	}
	res, err := rock.Cluster(ts, rock.Config{Theta: 0.5, K: 2})
	if err != nil {
		panic(err)
	}
	for i, members := range res.Clusters {
		fmt.Printf("cluster %d: %v\n", i, members)
	}
	// Output:
	// cluster 0: [0 1 2 3]
	// cluster 1: [4 5 6 7]
}

// ExampleReadBasket parses the classic market-basket text format — one
// transaction per line, whitespace-separated items — and clusters the
// result. The vocabulary interns item tokens as dense ids, so clusters
// can be decoded back to item names.
func ExampleReadBasket() {
	basket := `milk bread butter
milk bread jam
bread butter jam
beer chips salsa
beer chips dip
chips salsa dip
`
	d, err := rock.ReadBasket(strings.NewReader(basket), rock.BasketOptions{})
	if err != nil {
		panic(err)
	}
	res, err := rock.ClusterDataset(d, rock.Config{Theta: 0.2, K: 2})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d transactions over %d items in %d clusters\n",
		len(d.Trans), d.Vocab.Len(), res.K())
	for i, members := range res.Clusters {
		fmt.Printf("cluster %d: lines %v\n", i, members)
	}
	// Output:
	// 6 transactions over 8 items in 2 clusters
	// cluster 0: lines [0 1 2]
	// cluster 1: lines [3 4 5]
}

// ExampleConfig_sampling clusters a uniform random sample and assigns
// the remaining points in the labeling pass — the paper's recipe for
// datasets too large to cluster wholesale. Every phase is driven by
// Seed, so the run is reproducible.
func ExampleConfig_sampling() {
	d := rock.GenerateBasket(rock.BasketConfig{
		Transactions:    2000,
		Clusters:        4,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            1,
	})
	res, err := rock.Cluster(d.Trans, rock.Config{
		Theta:      0.3,
		K:          4,
		SampleSize: 500, // cluster 500 points, label the other 1500
		Seed:       1,
	})
	if err != nil {
		panic(err)
	}
	assigned := 0
	for _, ci := range res.Assign {
		if ci >= 0 {
			assigned++
		}
	}
	fmt.Printf("sampled %d of %d; %d clusters; %d points assigned\n",
		res.Stats.Sampled, res.Stats.N, res.K(), assigned)
	// Output:
	// sampled 500 of 2000; 4 clusters; 2000 points assigned
}

// ExampleModel_assign freezes a clustering run into an immutable Model
// and serves assignment queries from it. Assign is goroutine-safe and
// bit-identical to the pipeline's labeling phase over the frozen
// subsets; AssignBatch shards queries across workers with byte-identical
// output for every worker count.
func ExampleModel_assign() {
	d := rock.GenerateBasket(rock.BasketConfig{
		Transactions:    1000,
		Clusters:        4,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            3,
	})
	cfg := rock.Config{Theta: 0.3, K: 4, Seed: 3}
	res, err := rock.Cluster(d.Trans, cfg)
	if err != nil {
		panic(err)
	}
	model, err := rock.Freeze(d.Trans, res, cfg)
	if err != nil {
		panic(err)
	}
	assign := model.AssignBatch(d.Trans, 4) // any worker count: same output
	agree := 0
	for i, ci := range assign {
		if ci == res.Assign[i] {
			agree++
		}
	}
	fmt.Printf("model: k=%d labeled-points=%d\n", model.K(), model.LabeledPoints())
	fmt.Printf("%d of %d points assigned to their original cluster\n", agree, len(assign))
	// Output:
	// model: k=4 labeled-points=200
	// 1000 of 1000 points assigned to their original cluster
}

// ExampleModel_saveLoad persists a frozen model and reloads it in what
// could be another process: the file is versioned and checksummed, the
// round trip is byte-identical, and the loaded model answers queries
// exactly as the original — "cluster once, serve forever".
func ExampleModel_saveLoad() {
	d := rock.GenerateBasket(rock.BasketConfig{
		Transactions: 500,
		Clusters:     3,
		Seed:         4,
	})
	cfg := rock.Config{Theta: 0.35, K: 3, Seed: 4}
	res, err := rock.Cluster(d.Trans, cfg)
	if err != nil {
		panic(err)
	}
	// FreezeDataset also freezes the vocabulary, so a later process can
	// assign datasets read under their own vocabularies (AssignDataset).
	model, err := rock.FreezeDataset(d, res, cfg)
	if err != nil {
		panic(err)
	}
	var file bytes.Buffer // stands in for the model file on disk
	if err := model.Save(&file); err != nil {
		panic(err)
	}
	loaded, err := rock.LoadModel(&file)
	if err != nil {
		panic(err)
	}
	same := reflect.DeepEqual(model.AssignBatch(d.Trans, 1), loaded.AssignBatch(d.Trans, 2))
	fmt.Printf("reloaded: k=%d measure=%s\n", loaded.K(), loaded.MeasureName())
	fmt.Printf("identical assignments after the round trip: %v\n", same)
	// Output:
	// reloaded: k=3 measure=jaccard
	// identical assignments after the round trip: true
}

// ExampleConfig_workers runs the same clustering serially and with four
// workers. Workers bounds the goroutines in the neighbor, link, and
// labeling phases; results are byte-identical for every worker count —
// parallelism trades only wall-clock, never output.
func ExampleConfig_workers() {
	d := rock.GenerateBasket(rock.BasketConfig{
		Transactions:    1500,
		Clusters:        6,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            2,
	})
	serial, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.4, K: 6, Seed: 2, Workers: 1})
	if err != nil {
		panic(err)
	}
	parallel, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.4, K: 6, Seed: 2, Workers: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d clusters; identical across worker counts: %v\n",
		parallel.K(), reflect.DeepEqual(serial, parallel))
	// Output:
	// 6 clusters; identical across worker counts: true
}
