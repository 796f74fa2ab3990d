package synth

import (
	"math/rand"

	"github.com/rockclust/rock/internal/dataset"
)

// voteAttr describes one roll-call vote. Attributes with a clear partisan
// split carry a per-party consensus position; near-nonpartisan votes
// (water-project, immigration) are modeled as independent coin flips for
// everyone, as in the real data. Missing rates follow the UCI dataset's
// per-attribute profile.
type voteAttr struct {
	name     string
	demYes   bool // Democratic consensus position (partisan attrs)
	repYes   bool // Republican consensus position
	partisan bool
	pMissing float64
}

var voteProfile = []voteAttr{
	{"handicapped-infants", true, false, true, 0.03},
	{"water-project-cost-sharing", false, false, false, 0.11},
	{"adoption-of-the-budget-resolution", true, false, true, 0.03},
	{"physician-fee-freeze", false, true, true, 0.03},
	{"el-salvador-aid", false, true, true, 0.03},
	{"religious-groups-in-schools", false, true, true, 0.03},
	{"anti-satellite-test-ban", true, false, true, 0.03},
	{"aid-to-nicaraguan-contras", true, false, true, 0.03},
	{"mx-missile", true, false, true, 0.05},
	{"immigration", false, false, false, 0.02},
	{"synfuels-corporation-cutback", true, false, true, 0.05},
	{"education-spending", false, true, true, 0.07},
	{"superfund-right-to-sue", false, true, true, 0.06},
	{"crime", false, true, true, 0.04},
	{"duty-free-exports", true, false, true, 0.06},
	// Both parties leaned yes on the South Africa sanctions vote.
	{"export-administration-act-south-africa", true, true, true, 0.24},
}

// Role probabilities and voting fidelities reproduce the cohesion
// asymmetry of the 1984 House: a tight Republican core, a somewhat looser
// Democratic core, a diffuse moderate fringe in both parties (ROCK's
// outliers; the trap for centroid clustering), and a minority of
// cross-voting members — the "boll weevil" Democrats behind the paper's
// 22-Democrat contamination of the Republican cluster.
const (
	demModerate  = 0.16
	demCrossover = 0.08
	repModerate  = 0.10
	repCrossover = 0.03

	demCoreFidelity  = 0.85
	repCoreFidelity  = 0.90
	crossFidelity    = 0.88
	moderateFidelity = 0.62

	// Low-attendance members (both parties) abstain on a large fraction
	// of votes, like the heavily-'?' records of the UCI file. Jaccard
	// normalizes by the union, so ROCK simply prunes them; the binary
	// embedding instead places them between the party cores.
	absentee            = 0.06
	absenteeMissingRate = 0.45
)

// VotesConfig parameterizes the votes-like generator. The defaults match
// the UCI dataset's shape: 267 Democrats, 168 Republicans, 16 boolean
// attributes with realistic missing rates.
type VotesConfig struct {
	Democrats   int // default 267
	Republicans int // default 168
	Seed        int64
}

func (c VotesConfig) withDefaults() VotesConfig {
	if c.Democrats == 0 {
		c.Democrats = 267
	}
	if c.Republicans == 0 {
		c.Republicans = 168
	}
	return c
}

// Votes generates the stand-in for the UCI Congressional Voting Records
// dataset used in the paper's first quality experiment (experiments E1/E2).
// Records interleave parties (as the UCI file does) so prefix sampling
// stays representative.
func Votes(cfg VotesConfig) *dataset.Dataset {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Democrats + cfg.Republicans

	attrs := make([]string, len(voteProfile))
	for i, a := range voteProfile {
		attrs[i] = a.name
	}

	// Interleave parties deterministically in proportion (Bresenham-style
	// error accumulation yields exactly cfg.Democrats true entries).
	parties := make([]bool, total) // true = democrat
	acc := 0
	for i := range parties {
		acc += cfg.Democrats
		if acc >= total {
			acc -= total
			parties[i] = true
		}
	}

	records := make([]dataset.Record, total)
	labels := make([]string, total)
	for i := range records {
		dem := parties[i]

		// Draw the member's role. Moderates follow a centrist platform —
		// the Democratic position on the first half of the partisan votes
		// and the Republican position on the rest — loosely (fidelity
		// 0.62). Geometrically that is a diffuse blob midway between the
		// party cores: centroid-based clustering must attach it to one
		// party (mixing that cluster), while in Jaccard terms no moderate
		// gets close enough to anything to form links — ROCK sets them
		// aside as outliers, exactly the paper's account of its votes run.
		var fidelity float64
		voteAs := dem // which party's consensus the member follows
		centrist := false
		r := rng.Float64()
		switch {
		case dem && r < demModerate:
			fidelity, centrist = moderateFidelity, true
		case dem && r < demModerate+demCrossover:
			fidelity, voteAs = crossFidelity, false
		case dem:
			fidelity = demCoreFidelity
		case !dem && r < repModerate:
			fidelity, centrist = moderateFidelity, true
		case !dem && r < repModerate+repCrossover:
			fidelity, voteAs = crossFidelity, true
		default:
			fidelity = repCoreFidelity
		}

		missingBoost := 0.0
		if rng.Float64() < absentee {
			missingBoost = absenteeMissingRate
		}

		rec := make(dataset.Record, len(voteProfile))
		for a, va := range voteProfile {
			if rng.Float64() < va.pMissing+missingBoost {
				rec[a] = dataset.Missing
				continue
			}
			var yes bool
			if !va.partisan {
				yes = rng.Float64() < 0.5
			} else {
				var consensus bool
				switch {
				case centrist:
					if a < len(voteProfile)/2 {
						consensus = va.demYes
					} else {
						consensus = va.repYes
					}
				case voteAs:
					consensus = va.demYes
				default:
					consensus = va.repYes
				}
				yes = consensus
				if rng.Float64() >= fidelity {
					yes = !yes
				}
			}
			if yes {
				rec[a] = "y"
			} else {
				rec[a] = "n"
			}
		}
		records[i] = rec
		if dem {
			labels[i] = "democrat"
		} else {
			labels[i] = "republican"
		}
	}
	return dataset.EncodeRecords(attrs, records, labels, dataset.EncodeOptions{})
}
