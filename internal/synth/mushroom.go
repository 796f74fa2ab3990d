package synth

import (
	"fmt"
	"math/rand"

	"github.com/rockclust/rock/internal/dataset"
)

// mushroomAttrs lists the 22 categorical attributes of the UCI Mushroom
// dataset with the sizes of their value alphabets. The first six are the
// "jitter" attributes: near-constant across species (as many real mushroom
// attributes are) but noisy within every record.
var mushroomAttrs = []struct {
	name     string
	alphabet int
}{
	// Jitter attributes (species-independent base value, per-record noise).
	{"cap-surface", 4}, {"gill-attachment", 2}, {"gill-spacing", 2},
	{"veil-color", 4}, {"ring-number", 3}, {"population", 6},
	// Informative attributes (species templates differ here).
	{"cap-shape", 6}, {"cap-color", 10}, {"bruises", 2}, {"odor", 9},
	{"gill-size", 2}, {"gill-color", 12}, {"stalk-shape", 2},
	{"stalk-root", 5}, {"stalk-surface-above-ring", 4},
	{"stalk-surface-below-ring", 4}, {"stalk-color-above-ring", 9},
	{"stalk-color-below-ring", 9}, {"veil-type", 2}, {"ring-type", 8},
	{"spore-print-color", 9}, {"habitat", 7},
}

const (
	numJitterAttrs = 6
	numInformative = 16
	numFamilies    = 11
)

// Species are organized in 11 families of one edible and one poisonous
// variant. The two variants of a family differ in variantDiff (=3)
// informative attributes — geometrically close, which is what defeats
// centroid-based clustering — while distinct families differ in at least
// 6 informative attributes. Family 8 is the engineered exception: its
// variants differ in only 2 attributes, putting cross-class pairs within
// Jaccard reach of θ = 0.8 and reproducing the paper's single mixed ROCK
// cluster. Sizes sum to 8124 with 4208 edible / 3916 poisonous, the UCI
// totals, and are deliberately very uneven.
var (
	edibleSizes    = []int{1728, 1488, 384, 192, 144, 96, 64, 48, 32, 24, 8}
	poisonousSizes = []int{1184, 1040, 576, 432, 288, 144, 96, 72, 48, 24, 12}

	variantDiff   = 3
	mixedFamily   = 8
	mixedDiff     = 2
	jitterDefault = 0.2
)

// MushroomConfig parameterizes the mushroom-like generator.
type MushroomConfig struct {
	// Jitter is the per-record probability that each of the six jitter
	// attributes deviates from its base value (default 0.2). At the
	// default, ~65% of same-species record pairs exceed Jaccard 0.8
	// (dense θ-neighborhoods) while no cross-species pair outside the
	// engineered family can reach it — yet in squared Euclidean terms
	// within-species spread overlaps the distance to the cross-class
	// sibling species, which is what the paper's traditional baseline
	// trips over.
	Jitter float64
	Seed   int64
}

func (c MushroomConfig) withDefaults() MushroomConfig {
	if c.Jitter == 0 {
		c.Jitter = jitterDefault
	}
	return c
}

// Mushroom generates the stand-in for the UCI Mushroom dataset
// (experiments E3/E4): 8124 records, 22 attributes, 22 species in 11
// edible/poisonous families. Records are interleaved across species so
// prefix samples stay representative. Names carry the ground-truth
// species for diagnostics.
func Mushroom(cfg MushroomConfig) *dataset.Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	attrs := make([]string, len(mushroomAttrs))
	for i, a := range mushroomAttrs {
		attrs[i] = a.name
	}

	templates, edible := mushroomTemplates()
	nspecies := len(templates)

	sizes := make([]int, nspecies)
	for f := 0; f < numFamilies; f++ {
		sizes[2*f] = edibleSizes[f]
		sizes[2*f+1] = poisonousSizes[f]
	}
	order := interleave(sizes)

	records := make([]dataset.Record, 0, len(order))
	labels := make([]string, 0, len(order))
	names := make([]string, 0, len(order))
	for _, s := range order {
		rec := make(dataset.Record, len(mushroomAttrs))
		for a, at := range mushroomAttrs {
			val := templates[s][a]
			if a < numJitterAttrs && rng.Float64() < cfg.Jitter {
				val = (val + 1 + rng.Intn(at.alphabet-1)) % at.alphabet
			}
			rec[a] = fmt.Sprintf("%c", 'a'+val)
		}
		records = append(records, rec)
		if edible[s] {
			labels = append(labels, "edible")
		} else {
			labels = append(labels, "poisonous")
		}
		names = append(names, fmt.Sprintf("sp%02d", s))
	}
	d := dataset.EncodeRecords(attrs, records, labels, dataset.EncodeOptions{})
	d.Names = names
	return d
}

// mushroomTemplates builds the 22 species templates (value index per
// attribute) and their classes. Even species indices are the edible
// variants, odd the poisonous ones; species 2f and 2f+1 form family f.
func mushroomTemplates() (templates [][]int, edible []bool) {
	templates = make([][]int, 2*numFamilies)
	edible = make([]bool, 2*numFamilies)
	for f := 0; f < numFamilies; f++ {
		base := make([]int, len(mushroomAttrs))
		for a, at := range mushroomAttrs {
			if a < numJitterAttrs {
				base[a] = 0 // jitter attributes share a global base value
				continue
			}
			// Family templates: a fixed mixing rule; pairwise informative
			// distance ≥ 6 is asserted by tests.
			base[a] = (f*5 + 2*a) % at.alphabet
		}
		templates[2*f] = base
		edible[2*f] = true

		variant := append([]int(nil), base...)
		diff := variantDiff
		if f == mixedFamily {
			diff = mixedDiff
		}
		for d := 0; d < diff; d++ {
			a := numJitterAttrs + (f+d*5)%numInformative
			variant[a] = (variant[a] + 1) % mushroomAttrs[a].alphabet
		}
		templates[2*f+1] = variant
	}
	return templates, edible
}

// MushroomSpeciesCount reports the number of ground-truth species (the
// natural cluster count before the engineered family merges).
func MushroomSpeciesCount() int { return 2 * numFamilies }
