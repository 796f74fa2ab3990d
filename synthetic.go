package rock

import "github.com/rockclust/rock/internal/synth"

// Synthetic-data generator configurations, re-exported so downstream
// users can regenerate the evaluation datasets (all generators are
// deterministic given their Seed).
type (
	// BasketConfig parameterizes the market-basket generator used by the
	// scalability experiments.
	BasketConfig = synth.BasketConfig
	// LabeledConfig parameterizes the generic labeled categorical
	// generator.
	LabeledConfig = synth.LabeledConfig
	// VotesConfig parameterizes the Congressional-votes stand-in.
	VotesConfig = synth.VotesConfig
	// MushroomConfig parameterizes the UCI-Mushroom stand-in.
	MushroomConfig = synth.MushroomConfig
	// FundsConfig parameterizes the mutual-fund NAV simulator.
	FundsConfig = synth.FundsConfig
)

// GenerateBasket produces a labeled market-basket dataset from cluster
// templates (the workload of experiment E6).
func GenerateBasket(cfg BasketConfig) *Dataset { return synth.Basket(cfg) }

// GenerateLabeled produces generic labeled categorical records.
func GenerateLabeled(cfg LabeledConfig) *Dataset { return synth.Labeled(cfg) }

// GenerateVotes produces the 435-record stand-in for the UCI
// Congressional Voting Records dataset (experiments E1/E2).
func GenerateVotes(cfg VotesConfig) *Dataset { return synth.Votes(cfg) }

// GenerateMushroom produces the 8124-record stand-in for the UCI Mushroom
// dataset (experiments E3/E4).
func GenerateMushroom(cfg MushroomConfig) *Dataset { return synth.Mushroom(cfg) }

// GenerateFunds produces the 795-fund up-day transactions of the
// mutual-fund case study (experiment E5).
func GenerateFunds(cfg FundsConfig) *Dataset { return synth.Funds(cfg) }

// FundSectorCount reports the number of sectors in the simulated fund
// universe.
func FundSectorCount() int { return synth.FundSectorCount() }

// MushroomSpeciesCount reports the number of ground-truth species in the
// mushroom stand-in.
func MushroomSpeciesCount() int { return synth.MushroomSpeciesCount() }
