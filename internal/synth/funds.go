package synth

import (
	"fmt"
	"math/rand"

	"github.com/rockclust/rock/internal/dataset"
)

// fundSector describes one sector of the simulated fund universe: how
// many funds it holds and how its daily returns load on the three common
// factors (rates, market, gold) plus a sector-specific factor. The
// loadings are chosen so that, converting each fund to the transaction of
// its NAV up-days as the paper did, within-sector Jaccard lands near 0.88,
// sectors sharing a group factor (the bond sectors, the equity sectors)
// land near 0.70, and unrelated sectors near 1/3 — reproducing the
// dependency structure of the paper's Jan'93–Mar'95 fund universe.
type fundSector struct {
	name  string
	funds int
	// factor loadings: rates, market, gold, own-sector; idiosyncratic
	// noise gets weight noise.
	rates, market, gold, own, noise float64
}

var fundSectors = []fundSector{
	{"bond-municipal", 120, 0.92, 0, 0, 0.36, 0.14},
	{"bond-corporate", 100, 0.92, 0.10, 0, 0.35, 0.14},
	{"bond-government", 80, 0.92, 0, 0, 0.36, 0.14},
	{"equity-growth", 150, 0, 0.92, 0, 0.36, 0.14},
	{"equity-value", 120, 0.10, 0.92, 0, 0.35, 0.14},
	{"equity-smallcap", 60, 0, 0.92, 0, 0.36, 0.14},
	{"equity-international", 50, 0, 0.60, 0, 0.78, 0.16},
	{"precious-metals", 40, 0, -0.35, 0.90, 0.24, 0.14},
	{"balanced", 75, 0.64, 0.64, 0, 0.40, 0.14},
}

// FundsConfig parameterizes the fund-NAV simulator.
type FundsConfig struct {
	Days int // trading days simulated (default 550 ≈ Jan'93–Mar'95)
	Seed int64
}

func (c FundsConfig) withDefaults() FundsConfig {
	if c.Days == 0 {
		c.Days = 550
	}
	return c
}

// Funds simulates the mutual-fund case study (experiment E5): a three-
// factor daily return model over nine sectors, 795 funds total. Each fund
// becomes the transaction of the days on which its NAV rose — the paper's
// conversion of the time series to the categorical domain. Labels carry
// the sector, Names a per-fund ticker.
func Funds(cfg FundsConfig) *dataset.Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := dataset.NewVocabulary()

	// Pre-intern day items so ids are dense and ordered.
	dayItems := make([]dataset.Item, cfg.Days)
	for t := range dayItems {
		dayItems[t] = v.Intern(fmt.Sprintf("d%03d", t))
	}

	// Common factor paths.
	rates := make([]float64, cfg.Days)
	market := make([]float64, cfg.Days)
	gold := make([]float64, cfg.Days)
	for t := 0; t < cfg.Days; t++ {
		rates[t] = rng.NormFloat64()
		market[t] = rng.NormFloat64()
		gold[t] = rng.NormFloat64()
	}

	d := &dataset.Dataset{Vocab: v}
	fundNo := 0
	for _, sec := range fundSectors {
		own := make([]float64, cfg.Days)
		for t := range own {
			own[t] = rng.NormFloat64()
		}
		for f := 0; f < sec.funds; f++ {
			items := make([]dataset.Item, 0, cfg.Days/2)
			for t := 0; t < cfg.Days; t++ {
				r := sec.rates*rates[t] + sec.market*market[t] + sec.gold*gold[t] +
					sec.own*own[t] + sec.noise*rng.NormFloat64()
				if r > 0 {
					items = append(items, dayItems[t])
				}
			}
			d.Trans = append(d.Trans, dataset.NewTransaction(items...))
			d.Labels = append(d.Labels, sec.name)
			d.Names = append(d.Names, fmt.Sprintf("FUND%03d", fundNo))
			fundNo++
		}
	}
	return d
}

// FundSectorCount reports the number of sectors in the simulated fund
// universe — the natural cluster count for the E5 experiment.
func FundSectorCount() int { return len(fundSectors) }
