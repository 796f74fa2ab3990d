package rock_test

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"github.com/rockclust/rock"
)

// The façade must support the full quickstart flow with public names only.
func TestPublicQuickstart(t *testing.T) {
	in := "milk bread butter\nmilk bread eggs\nmilk butter eggs\nbeer chips salsa\nbeer chips dip\nbeer salsa dip\n"
	d, err := rock.ReadBasket(strings.NewReader(in), rock.BasketOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.3, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() != 2 {
		t.Fatalf("k = %d", res.K())
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[3] != res.Assign[5] || res.Assign[0] == res.Assign[3] {
		t.Fatalf("assignments wrong: %v", res.Assign)
	}
}

func TestPublicCSVPipeline(t *testing.T) {
	csv := "class,a,b\nx,1,2\nx,1,2\ny,8,9\ny,8,9\n"
	opts := rock.DefaultCSVOptions()
	opts.LabelCol = 0
	d, err := rock.ReadCSV(strings.NewReader(csv), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rock.ClusterDataset(d, rock.Config{Theta: 0.5, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	ev := rock.Evaluate(res.Assign, d.Labels)
	if ev.Accuracy != 1 {
		t.Fatalf("accuracy = %g", ev.Accuracy)
	}
	var buf bytes.Buffer
	if err := rock.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "class") {
		t.Fatal("WriteCSV lost the label column")
	}
}

func TestPublicEncodeRecords(t *testing.T) {
	d := rock.EncodeRecords([]string{"p", "q"},
		[]rock.Record{{"1", "2"}, {"1", rock.Missing}}, []string{"a", "b"}, rock.EncodeOptions{})
	if d.Trans[1].Len() != 1 {
		t.Fatal("missing value not dropped")
	}
	rec := rock.DecodeRecord(d, d.Trans[1])
	if rec[1] != rock.Missing {
		t.Fatalf("DecodeRecord = %v", rec)
	}
}

func TestPublicMeasures(t *testing.T) {
	a := rock.NewTransaction(1, 2, 3)
	b := rock.NewTransaction(2, 3, 4)
	if got := rock.Jaccard.Sim(a, b); got != 0.5 {
		t.Fatalf("Jaccard = %g", got)
	}
	if rock.Dice.Sim(a, b) <= rock.Jaccard.Sim(a, b) {
		t.Fatal("Dice should exceed Jaccard on partial overlap")
	}
	if rock.Cosine.Sim(a, b) <= 0 || rock.Overlap.Sim(a, b) <= 0 {
		t.Fatal("measures broken")
	}
	if (rock.Config{}).Measure != rock.Jaccard {
		t.Fatal("the zero Measure must be Jaccard")
	}
}

func TestPublicGoodnessAndCriterion(t *testing.T) {
	if rock.MarketBasketF(0.5) != 1.0/3.0 {
		t.Fatal("MarketBasketF wrong")
	}
	if rock.ConstantF(0.2)(0.9) != 0.2 {
		t.Fatal("ConstantF wrong")
	}
	if (rock.Config{}).Goodness != rock.GoodnessROCK {
		t.Fatal("the zero Config must select GoodnessROCK")
	}
	d := rock.GenerateBasket(rock.BasketConfig{Transactions: 200, Clusters: 2, Seed: 3})
	for _, g := range []rock.Goodness{rock.GoodnessROCK, rock.GoodnessLinkCount, rock.GoodnessLinksPerPair} {
		if _, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.4, K: 2, Goodness: g}); err != nil {
			t.Fatalf("goodness %d: %v", g, err)
		}
	}
	if _, err := rock.Cluster(d.Trans, rock.Config{Theta: 0.4, K: 2, Goodness: rock.GoodnessLinksPerPair + 1}); err == nil {
		t.Fatal("a goodness outside the set was accepted")
	}
	links := func(i, j int) int { return 1 }
	if got := rock.Criterion([][]int{{0, 1}}, links, 0.5); got <= 0 {
		t.Fatalf("Criterion = %g", got)
	}
}

// The façade must support the full freeze → save → load → assign flow
// with public names only, including the errors.Is sentinels.
func TestPublicModelServing(t *testing.T) {
	d := rock.GenerateBasket(rock.BasketConfig{Transactions: 400, Clusters: 4, Seed: 9})
	cfg := rock.Config{Theta: 0.4, K: 4, Seed: 9}
	res, err := rock.Cluster(d.Trans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := rock.FreezeDataset(d, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := rock.LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	serial := m.AssignBatch(d.Trans, 1)
	parallel := loaded.AssignBatch(d.Trans, 4)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("assignment %d diverges across save/load and worker counts", i)
		}
		if loaded.Assign(d.Trans[i]) != serial[i] {
			t.Fatalf("Assign(%d) diverges from AssignBatch", i)
		}
	}
	if loaded.K() != res.K() || loaded.MeasureName() != "jaccard" {
		t.Fatalf("model metadata lost: %v", loaded)
	}
	if _, err := rock.LoadModel(strings.NewReader("not a model")); !errors.Is(err, rock.ErrModelTruncated) && !errors.Is(err, rock.ErrModelMagic) {
		t.Fatalf("garbage load error not a sentinel: %v", err)
	}
	if _, err := rock.Freeze(d.Trans, res, rock.Config{Theta: 0.4, K: 4, Measure: rock.Overlap + 1}); err == nil {
		t.Fatal("a value past the last measure froze")
	}
}

func TestPublicChernoff(t *testing.T) {
	s := rock.ChernoffSampleSize(10000, 500, 0.5, 0.01)
	if s <= 0 || s > 10000 {
		t.Fatalf("bound = %d", s)
	}
}

func TestPublicQRock(t *testing.T) {
	d := rock.GenerateBasket(rock.BasketConfig{Transactions: 100, Clusters: 2, Seed: 4})
	res, err := rock.QRock(d.Trans, rock.QRockConfig{Theta: 0.25, MinClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.K() < 2 {
		t.Fatalf("components = %d", res.K())
	}
}

func TestPublicBaselines(t *testing.T) {
	d := rock.GenerateLabeled(rock.LabeledConfig{Records: 80, Classes: 2, Noise: 0.05, Seed: 5})
	h, err := rock.Hierarchical(d.Trans, rock.HierarchicalConfig{K: 2, Linkage: rock.AverageLinkage})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Clusters) != 2 {
		t.Fatalf("hierarchical k = %d", len(h.Clusters))
	}
	records := rock.RecordsOf(d)
	km, err := rock.KModes(records, rock.KModesConfig{K: 2, Seed: 1, Restarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(km.Clusters) != 2 || km.Cost < 0 {
		t.Fatalf("kmodes: %d clusters cost %d", len(km.Clusters), km.Cost)
	}
	sampled, err := rock.HierarchicalSampled(d.Trans, []int{0, 10, 20, 40, 50, 70}, rock.HierarchicalConfig{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range sampled.Clusters {
		total += len(c)
	}
	if total != d.Len() {
		t.Fatalf("sampled labeling covered %d of %d", total, d.Len())
	}
}

func TestPublicSTIRR(t *testing.T) {
	// Asymmetric blocks: equal-sized symmetric blocks pair up the top
	// eigenvalues and stall the direction of the power iteration.
	records := []rock.Record{
		{"A1", "A2"}, {"A1", "A2"}, {"A1", "A2b"}, {"A1", "A2"},
		{"B1", "B2"}, {"B1", "B2"}, {"B1", "B2b"},
	}
	res, err := rock.STIRR(records, 2, rock.STIRRConfig{Revised: true, Seed: 1, Iters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatal("revised STIRR did not converge")
	}
	assign := rock.STIRRClusters(res, records, 1)
	for i := 1; i < 4; i++ {
		if assign[i] != assign[0] {
			t.Fatalf("A-block split: %v", assign)
		}
	}
	for i := 5; i < 7; i++ {
		if assign[i] != assign[4] {
			t.Fatalf("B-block split: %v", assign)
		}
	}
	if assign[0] == assign[4] {
		t.Fatalf("blocks merged: %v", assign)
	}
}

func TestPublicGeneratorsDeterministic(t *testing.T) {
	a := rock.GenerateVotes(rock.VotesConfig{Seed: 11})
	b := rock.GenerateVotes(rock.VotesConfig{Seed: 11})
	if a.Len() != 435 || b.Len() != 435 {
		t.Fatal("votes size wrong")
	}
	for i := range a.Trans {
		if !a.Trans[i].Equal(b.Trans[i]) {
			t.Fatal("generator not deterministic")
		}
	}
	if rock.FundSectorCount() < 2 || rock.MushroomSpeciesCount() != 22 {
		t.Fatal("universe constants wrong")
	}
}

func TestPublicEntropyAndContingency(t *testing.T) {
	assign := []int{0, 0, 1, 1}
	labels := []string{"a", "b", "a", "b"}
	if rock.ClusterEntropy(assign, labels) <= 0 {
		t.Fatal("mixed clustering should have positive entropy")
	}
	classes, counts := rock.ContingencyTable(assign, labels)
	if len(classes) != 2 || len(counts) != 2 {
		t.Fatal("contingency shape wrong")
	}
	if math.Abs(rock.Evaluate(assign, labels).Accuracy-0.5) > 1e-12 {
		t.Fatal("accuracy wrong")
	}
}
