// Package synth generates the synthetic datasets that stand in for the
// paper's evaluation data in experiments E1..E8 (`rockbench -list`):
// market-basket streams for the scalability experiments,
// votes-like and mushroom-like categorical records for the quality tables,
// simulated mutual-fund NAV series for the time-series case study, and a
// generic labeled categorical generator for ablations and property tests.
//
// Every generator is fully deterministic given its Seed.
package synth

import (
	"fmt"
	"math/rand"

	"github.com/rockclust/rock/internal/dataset"
)

// BasketConfig parameterizes the market-basket generator. Transactions
// are drawn from per-cluster item templates, the same generative family as
// the paper's scalability datasets: a transaction picks a subset of its
// cluster's template and sprinkles in noise items.
type BasketConfig struct {
	Transactions    int     // total transactions
	Clusters        int     // number of cluster templates
	TemplateItems   int     // items per cluster template (default 20)
	TransactionSize int     // items drawn per transaction (default 8)
	OverlapItems    int     // template items shared with the next cluster (default 0)
	NoiseItems      int     // size of the global noise pool (default 50)
	NoiseRate       float64 // probability an item is replaced by noise (default 0.05)
	Seed            int64
}

func (c BasketConfig) withDefaults() BasketConfig {
	if c.TemplateItems == 0 {
		c.TemplateItems = 20
	}
	if c.TransactionSize == 0 {
		c.TransactionSize = 8
	}
	if c.NoiseItems == 0 {
		c.NoiseItems = 50
	}
	if c.NoiseRate == 0 {
		c.NoiseRate = 0.05
	}
	return c
}

// Basket generates a labeled market-basket dataset. Labels are the
// template index of each transaction ("c0", "c1", ...). Cluster sizes are
// equal up to rounding.
func Basket(cfg BasketConfig) *dataset.Dataset {
	cfg = cfg.withDefaults()
	if cfg.Transactions <= 0 || cfg.Clusters <= 0 {
		return &dataset.Dataset{Vocab: dataset.NewVocabulary()}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := dataset.NewVocabulary()

	// Template g owns items [g·stride, g·stride+TemplateItems), where the
	// stride leaves OverlapItems shared with template g+1.
	stride := cfg.TemplateItems - cfg.OverlapItems
	if stride < 1 {
		stride = 1
	}
	itemName := func(raw int) string { return fmt.Sprintf("i%d", raw) }
	noiseBase := (cfg.Clusters-1)*stride + cfg.TemplateItems

	d := &dataset.Dataset{Vocab: v}
	d.Trans = make([]dataset.Transaction, 0, cfg.Transactions)
	d.Labels = make([]string, 0, cfg.Transactions)
	for i := 0; i < cfg.Transactions; i++ {
		g := i * cfg.Clusters / cfg.Transactions // balanced labels
		base := g * stride
		items := make([]dataset.Item, 0, cfg.TransactionSize)
		for len(items) < cfg.TransactionSize {
			var raw int
			if rng.Float64() < cfg.NoiseRate {
				raw = noiseBase + rng.Intn(cfg.NoiseItems)
			} else {
				raw = base + rng.Intn(cfg.TemplateItems)
			}
			items = append(items, v.Intern(itemName(raw)))
		}
		d.Trans = append(d.Trans, dataset.NewTransaction(items...))
		d.Labels = append(d.Labels, fmt.Sprintf("c%d", g))
	}
	return d
}

// LabeledConfig parameterizes the generic labeled categorical generator:
// k classes over m attributes with per-class preferred values and a noise
// rate that substitutes a uniformly random value.
type LabeledConfig struct {
	Records    int
	Classes    int
	Attributes int     // default 10
	Alphabet   int     // values per attribute (default 5)
	Noise      float64 // probability of replacing a value (default 0.1)
	Missing    float64 // probability of a missing value (default 0)
	Seed       int64
}

func (c LabeledConfig) withDefaults() LabeledConfig {
	if c.Attributes == 0 {
		c.Attributes = 10
	}
	if c.Alphabet == 0 {
		c.Alphabet = 5
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	return c
}

// Labeled generates categorical records where class g prefers value
// (g + a) mod Alphabet on attribute a, corrupted by noise and missing
// values. It is the workhorse for ablation experiments and tests.
func Labeled(cfg LabeledConfig) *dataset.Dataset {
	cfg = cfg.withDefaults()
	if cfg.Records <= 0 || cfg.Classes <= 0 {
		return &dataset.Dataset{Vocab: dataset.NewVocabulary()}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	attrs := make([]string, cfg.Attributes)
	for a := range attrs {
		attrs[a] = fmt.Sprintf("a%d", a)
	}
	records := make([]dataset.Record, cfg.Records)
	labels := make([]string, cfg.Records)
	for i := range records {
		g := i * cfg.Classes / cfg.Records
		rec := make(dataset.Record, cfg.Attributes)
		for a := range rec {
			switch {
			case cfg.Missing > 0 && rng.Float64() < cfg.Missing:
				rec[a] = dataset.Missing
			case rng.Float64() < cfg.Noise:
				rec[a] = fmt.Sprintf("v%d", rng.Intn(cfg.Alphabet))
			default:
				rec[a] = fmt.Sprintf("v%d", (g+a)%cfg.Alphabet)
			}
		}
		records[i] = rec
		labels[i] = fmt.Sprintf("g%d", g)
	}
	return dataset.EncodeRecords(attrs, records, labels, dataset.EncodeOptions{})
}
