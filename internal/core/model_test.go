package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// modelOracleMeasures are the four serializable built-ins every model
// oracle configuration cycles through.
var modelOracleMeasures = []struct {
	name string
	fn   similarity.Measure
}{
	{"jaccard", similarity.Jaccard},
	{"dice", similarity.Dice},
	{"cosine", similarity.Cosine},
	{"overlap", similarity.Overlap},
}

// modelWorkerCounts mirrors labelWorkerCounts, per the acceptance
// criteria.
var modelWorkerCounts = []int{1, 2, 4, 8}

// modelFixture builds a random frozen model plus the global data it was
// frozen from: transactions, the labeled subsets (dataset-global
// indices), and a query set disjoint from the labeled points.
func modelFixture(r *rand.Rand, m similarity.Measure) (*Model, []dataset.Transaction, [][]int, []dataset.Transaction, float64, float64) {
	n := 40 + r.Intn(220)
	ts := randomTransactionsCore(r, n, 1+r.Intn(8), 4+r.Intn(30))
	split := 1 + r.Intn(n-1)
	k := 1 + r.Intn(6)
	clusters := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		clusters = append(clusters, nil)
	}
	for p := 0; p < split; p++ {
		ci := r.Intn(k)
		clusters[ci] = append(clusters[ci], p)
	}
	nonEmpty := clusters[:0]
	for _, c := range clusters {
		if len(c) > 0 {
			nonEmpty = append(nonEmpty, c)
		}
	}
	cfg := Config{
		Theta:          0.05 + 0.9*r.Float64(),
		K:              len(nonEmpty),
		LabelFraction:  0.05 + 0.9*r.Float64(),
		MaxLabelPoints: 1 + r.Intn(25),
	}.withDefaults()
	sets := labelSets(nonEmpty, cfg, r)
	f := MarketBasketF(cfg.Theta)
	model, err := FreezeSets(ts, sets, nil, cfg.Theta, f, m)
	if err != nil {
		panic(err)
	}
	// The fixtures sit far below the AssignBatch serial crossover; force
	// the sharded path so the oracle actually exercises it.
	model.batchSerialBelow = -1
	queries := ts[split:]
	return model, ts, sets, queries, cfg.Theta, f
}

// TestModelOracleAssign proves Model.Assign and Model.AssignBatch
// bit-identical to the serial pairwise reference labelPoint over the
// global transactions and sets the model was frozen from — all four
// built-in measures, workers 1/2/4/8 (run under -race in CI).
func TestModelOracleAssign(t *testing.T) {
	for seed := int64(0); seed < 32; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := modelOracleMeasures[int(seed)%len(modelOracleMeasures)]
		model, ts, sets, queries, theta, f := modelFixture(r, m.fn)

		ref := make([]int, len(queries))
		for i, q := range queries {
			ref[i] = labelPoint(q, ts, sets, theta, f, m.fn)
		}
		for i, q := range queries {
			if got := model.Assign(q); got != ref[i] {
				t.Fatalf("seed=%d measure=%s query %d: Assign = %d, labelPoint = %d", seed, m.name, i, got, ref[i])
			}
		}
		for _, workers := range modelWorkerCounts {
			if got := model.AssignBatch(queries, workers); !reflect.DeepEqual(got, ref) {
				t.Fatalf("seed=%d measure=%s workers=%d: AssignBatch diverges from labelPoint", seed, m.name, workers)
			}
		}
		if !model.denomEqual() {
			t.Fatalf("seed=%d: frozen denominators diverge from (|L_i|+1)^f", seed)
		}
	}
}

// TestModelReproducesSampledRun pins Freeze's strongest contract: a
// model frozen from a sampled run reuses the run's own labeled subsets
// (Result.LabelSets), so Assign on every labeling candidate returns
// exactly the cluster the run assigned it to — across measures and
// LabelOutliers, and identically after a save/load round trip.
func TestModelReproducesSampledRun(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 12; trial++ {
		n := 150 + r.Intn(200)
		ts := randomTransactionsCore(r, n, 2+r.Intn(7), 6+r.Intn(24))
		m := modelOracleMeasures[trial%len(modelOracleMeasures)]
		cfg := Config{
			Theta:          0.1 + 0.6*r.Float64(),
			K:              1 + r.Intn(5),
			Measure:        m.fn,
			Seed:           r.Int63(),
			SampleSize:     30 + r.Intn(n-30),
			LabelFraction:  0.05 + 0.9*r.Float64(),
			MaxLabelPoints: 1 + r.Intn(30),
			LabelOutliers:  trial%2 == 0,
		}
		res, err := Cluster(ts, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(res.Clusters) == 0 {
			continue
		}
		if res.Stats.LabelCandidates > 0 && len(res.LabelSets) != len(res.Clusters) {
			t.Fatalf("trial %d: run recorded %d label sets for %d clusters", trial, len(res.LabelSets), len(res.Clusters))
		}
		model, err := Freeze(ts, res, cfg)
		if err != nil {
			t.Fatalf("trial %d: freeze: %v", trial, err)
		}
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		inSample := make(map[int]bool, len(res.SampleIdx))
		for _, p := range res.SampleIdx {
			inSample[p] = true
		}
		checked := 0
		for p := 0; p < n; p++ {
			if inSample[p] {
				continue // sample members were clustered, not labeled
			}
			if got := model.Assign(ts[p]); got != res.Assign[p] {
				t.Fatalf("trial %d measure=%s candidate %d: model assigns %d, the run assigned %d",
					trial, m.name, p, got, res.Assign[p])
			}
			if got := loaded.Assign(ts[p]); got != res.Assign[p] {
				t.Fatalf("trial %d measure=%s candidate %d: reloaded model diverges from the run", trial, m.name, p)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("trial %d: no out-of-sample candidates checked", trial)
		}
	}
}

// TestModelFreezeDrawsLabelSets pins Freeze's fallback for runs that
// never labeled (no sampling, so Result.LabelSets is nil): the subsets
// are drawn fresh from Result.Clusters by the same labelSets pass the
// labeling phase uses, seeded by cfg.Seed — so a frozen model's answers
// equal a labelPoint pass over exactly those subsets.
func TestModelFreezeDrawsLabelSets(t *testing.T) {
	ts, _ := groupedData(3, 40, 7)
	cfg := Config{Theta: 0.4, K: 3, Seed: 11, LabelFraction: 0.3, MaxLabelPoints: 20}
	res, err := Cluster(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := Freeze(ts, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSets := labelSets(res.Clusters, cfg.withDefaults(), rand.New(rand.NewSource(cfg.Seed)))
	queries := randomTransactionsCore(rand.New(rand.NewSource(3)), 60, 6, 40)
	f := cfg.withDefaults().fval()
	for i, q := range queries {
		want := labelPoint(q, ts, wantSets, cfg.Theta, f, similarity.Jaccard)
		if got := model.Assign(q); got != want {
			t.Fatalf("query %d: Assign = %d, labelPoint over the drawn sets = %d", i, got, want)
		}
	}
	if got, want := model.ClusterSizes(), res.Sizes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("ClusterSizes = %v, want %v", got, want)
	}
	if model.K() != res.K() || model.Theta() != cfg.Theta || model.F() != f || model.MeasureName() != "jaccard" {
		t.Fatalf("metadata wrong: %v", model)
	}
}

// TestModelAssignConcurrent hammers one shared model from many
// goroutines (meaningful under -race: the frozen index must be
// read-only and every query's scratch its own).
func TestModelAssignConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	model, ts, sets, queries, theta, f := modelFixture(r, similarity.Jaccard)
	ref := make([]int, len(queries))
	for i, q := range queries {
		ref[i] = labelPoint(q, ts, sets, theta, f, similarity.Jaccard)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				if g%2 == 0 {
					for i, q := range queries {
						if got := model.Assign(q); got != ref[i] {
							t.Errorf("goroutine %d: query %d: %d != %d", g, i, got, ref[i])
							return
						}
					}
				} else if got := model.AssignBatch(queries, 4); !reflect.DeepEqual(got, ref) {
					t.Errorf("goroutine %d: AssignBatch diverged", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestModelSaveLoadRoundTrip: Save → Load → Save must be byte-identical,
// and the loaded model must answer every query exactly as the original —
// with and without a frozen vocabulary.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(100 + seed))
		m := modelOracleMeasures[int(seed)%len(modelOracleMeasures)]
		model, _, _, queries, _, _ := modelFixture(r, m.fn)
		if seed%2 == 0 {
			items := make([]string, 64)
			for i := range items {
				items[i] = fmt.Sprintf("item-%d", i)
			}
			model.items = items
		}

		var a bytes.Buffer
		if err := model.Save(&a); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadModel(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("seed=%d: load: %v", seed, err)
		}
		loaded.batchSerialBelow = -1 // exercise the sharded path post-load
		var b bytes.Buffer
		if err := loaded.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed=%d: save→load→save not byte-identical (%d vs %d bytes)", seed, a.Len(), b.Len())
		}
		if !reflect.DeepEqual(model.AssignBatch(queries, 1), loaded.AssignBatch(queries, 3)) {
			t.Fatalf("seed=%d: loaded model assigns differently", seed)
		}
		if loaded.Theta() != model.Theta() || loaded.F() != model.F() ||
			loaded.MeasureName() != model.MeasureName() || loaded.K() != model.K() ||
			loaded.LabeledPoints() != model.LabeledPoints() ||
			!reflect.DeepEqual(loaded.ClusterSizes(), model.ClusterSizes()) ||
			!reflect.DeepEqual(loaded.Items(), model.Items()) {
			t.Fatalf("seed=%d: metadata changed across the round trip:\n  %v\n  %v", seed, model, loaded)
		}
	}
}

// goldenModelBytes freezes a small deterministic model (with vocabulary)
// and returns its serialized form — the base the load-failure table
// mutates.
func goldenModelBytes(t testing.TB) []byte {
	t.Helper()
	v := dataset.NewVocabulary()
	d := &dataset.Dataset{Vocab: v}
	for _, line := range []string{"a b c", "a b d", "e f g", "e f h"} {
		var items []dataset.Item
		for _, tok := range strings.Fields(line) {
			items = append(items, v.Intern(tok))
		}
		d.Trans = append(d.Trans, dataset.NewTransaction(items...))
	}
	res, err := Cluster(d.Trans, Config{Theta: 0.4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := FreezeDataset(d, res, Config{Theta: 0.4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal recomputes the trailing CRC over a mutated body, so a test can
// corrupt the payload without tripping the checksum gate.
func reseal(b []byte) []byte {
	body := b[:len(b)-4]
	out := append([]byte(nil), body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(body))
	return append(out, crc[:]...)
}

// TestModelLoadFailures drives every Load failure path over mutations of
// one golden model file: each must return an error wrapping the right
// sentinel with an actionable message, never a panic or a silent zero
// model.
func TestModelLoadFailures(t *testing.T) {
	golden := goldenModelBytes(t)
	if _, err := LoadModel(bytes.NewReader(golden)); err != nil {
		t.Fatalf("golden model does not load: %v", err)
	}
	// The measure name "jaccard" sits at a fixed offset: magic(8) +
	// version(4) + theta(8) + f(8) + strlen(4).
	const measureOff = 8 + 4 + 8 + 8 + 4

	cases := []struct {
		name     string
		mutate   func([]byte) []byte
		sentinel error
		mention  string // a substring the message must carry to be actionable
	}{
		{
			name:     "truncated below the fixed frame",
			mutate:   func(b []byte) []byte { return b[:10] },
			sentinel: ErrModelTruncated,
			mention:  "bytes",
		},
		{
			name:     "empty file",
			mutate:   func(b []byte) []byte { return nil },
			sentinel: ErrModelTruncated,
			mention:  "truncated",
		},
		{
			name:     "truncated mid-payload",
			mutate:   func(b []byte) []byte { return b[:len(b)/2] },
			sentinel: ErrModelChecksum,
			mention:  "truncated or corrupted",
		},
		{
			name: "flipped payload byte",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				b[len(b)/2] ^= 0xFF
				return b
			},
			sentinel: ErrModelChecksum,
			mention:  "hash",
		},
		{
			name:     "wrong magic",
			mutate:   func(b []byte) []byte { return append([]byte("NOTAMODL"), b[8:]...) },
			sentinel: ErrModelMagic,
			mention:  "not a rock model",
		},
		{
			name: "unknown version",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				binary.LittleEndian.PutUint32(b[8:12], 99)
				return reseal(b)
			},
			sentinel: ErrModelVersion,
			mention:  "version 99",
		},
		{
			name: "unknown measure metadata",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				copy(b[measureOff:measureOff+7], "hamming")
				return reseal(b)
			},
			sentinel: ErrModelMeasure,
			mention:  "hamming",
		},
		{
			name: "non-finite exponent",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				// f sits after magic(8) + version(4) + theta(8).
				binary.LittleEndian.PutUint64(b[20:28], math.Float64bits(math.NaN()))
				return reseal(b)
			},
			sentinel: ErrModelCorrupt,
			mention:  "f not finite",
		},
		{
			name: "labeled point item outside the vocabulary",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				// First point's last item (keeping the ascending order
				// intact): after measure(7) + k(4) + 4 cluster entries
				// (4×12: the golden run finds 4 singleton clusters) +
				// nitems(4) + two preceding items (2×4).
				itemOff := measureOff + 7 + 4 + 48 + 4 + 8
				binary.LittleEndian.PutUint32(b[itemOff:itemOff+4], 1000)
				return reseal(b)
			},
			sentinel: ErrModelCorrupt,
			mention:  "vocabulary",
		},
		{
			name: "trailing bytes after the payload",
			mutate: func(b []byte) []byte {
				return reseal(append(append([]byte(nil), b[:len(b)-4]...), 0, 0, 0, 0, 0, 0, 0, 0))
			},
			sentinel: ErrModelCorrupt,
			mention:  "trailing",
		},
		{
			name: "set sizes exceed the stored points",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				// k's offset: measure "jaccard" (7 bytes) precedes it.
				kOff := measureOff + 7
				// First cluster entry follows k: size uint64, setSize uint32.
				setOff := kOff + 4 + 8
				binary.LittleEndian.PutUint32(b[setOff:setOff+4], 1<<30)
				return reseal(b)
			},
			sentinel: ErrModelCorrupt,
			mention:  "cluster table",
		},
		{
			name: "cluster size overflows int",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				// First cluster entry's clusterSize uint64 follows k.
				sizeOff := measureOff + 7 + 4
				binary.LittleEndian.PutUint64(b[sizeOff:sizeOff+8], ^uint64(0))
				return reseal(b)
			},
			sentinel: ErrModelCorrupt,
			mention:  "cluster size",
		},
		{
			// The regression this PR's fuzzer shook out: a value in
			// (2³¹, 2⁶³) stays positive through the uint64 → int
			// conversion on 64-bit hosts, so the old `< 0` check let it
			// through as a "valid" multi-terapoint cluster.
			name: "cluster size in (2^31, 2^63)",
			mutate: func(b []byte) []byte {
				b = append([]byte(nil), b...)
				sizeOff := measureOff + 7 + 4
				binary.LittleEndian.PutUint64(b[sizeOff:sizeOff+8], 1<<40)
				return reseal(b)
			},
			sentinel: ErrModelCorrupt,
			mention:  "plausible point count",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadModel(bytes.NewReader(tc.mutate(append([]byte(nil), golden...))))
			if err == nil {
				t.Fatal("mutated model loaded without error")
			}
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("error %q does not wrap %q", err, tc.sentinel)
			}
			if !strings.Contains(err.Error(), tc.mention) {
				t.Fatalf("error %q does not mention %q", err, tc.mention)
			}
		})
	}
}

// TestModelFreezeRejects pins the freeze-time error paths: custom
// measures cannot serialize, and empty runs have nothing to freeze.
func TestModelFreezeRejects(t *testing.T) {
	ts, _ := groupedData(2, 20, 3)
	res, err := Cluster(ts, Config{Theta: 0.4, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	custom := func(a, b dataset.Transaction) float64 { return 1 }
	if _, err := Freeze(ts, res, Config{Theta: 0.4, K: 2, Measure: custom}); err == nil || !strings.Contains(err.Error(), "custom") {
		t.Fatalf("custom measure: err = %v", err)
	}
	if _, err := Freeze(ts, &Result{}, Config{Theta: 0.4, K: 2}); err == nil || !strings.Contains(err.Error(), "no clusters") {
		t.Fatalf("empty result: err = %v", err)
	}
	if _, err := FreezeSets(ts, [][]int{{0, 99}}, nil, 0.4, 0.3, nil); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range set index: err = %v", err)
	}
	if _, err := FreezeSets(ts, [][]int{{0}}, nil, math.NaN(), 0.3, nil); err == nil || !strings.Contains(err.Error(), "theta") {
		t.Fatalf("NaN theta: err = %v", err)
	}
	if _, err := FreezeSets(ts, [][]int{{0}}, nil, 0.4, math.Inf(1), nil); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("infinite f: err = %v", err)
	}
}

// TestModelAssignDataset proves cross-vocabulary assignment exact: a
// query dataset read under a different vocabulary (different id order,
// plus items the model has never seen) must assign identically to the
// same records interned under the model's own vocabulary.
func TestModelAssignDataset(t *testing.T) {
	lines := []string{
		"milk bread butter", "milk bread jam", "bread butter jam",
		"beer chips salsa", "beer chips dip", "chips salsa dip",
	}
	build := func(order []string) *dataset.Dataset {
		v := dataset.NewVocabulary()
		d := &dataset.Dataset{Vocab: v}
		for _, name := range order {
			v.Intern(name)
		}
		for _, line := range lines {
			var items []dataset.Item
			for _, tok := range strings.Fields(line) {
				items = append(items, v.Intern(tok))
			}
			d.Trans = append(d.Trans, dataset.NewTransaction(items...))
		}
		return d
	}
	d := build(nil)
	res, err := Cluster(d.Trans, Config{Theta: 0.2, K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Theta: 0.2, K: 2, Seed: 1, LabelFraction: 1, MaxLabelPoints: 10}
	m, err := FreezeDataset(d, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Same-vocabulary baseline.
	want := m.AssignBatch(d.Trans, 1)

	// Reversed interning order scrambles every item id; extra never-seen
	// items must count toward |t| without matching anything.
	rev := build([]string{"dip", "salsa", "chips", "beer", "jam", "butter", "bread", "milk"})
	got, err := m.AssignDataset(rev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reordered vocabulary changes assignments: %v vs %v", got, want)
	}

	// A record with unknown items alongside known ones: the unknowns
	// must dilute the similarity exactly as a fresh in-process item would.
	v2 := dataset.NewVocabulary()
	q := &dataset.Dataset{Vocab: v2}
	q.Trans = append(q.Trans, dataset.NewTransaction(v2.Intern("milk"), v2.Intern("bread"), v2.Intern("quinoa"), v2.Intern("kale")))
	gotQ, err := m.AssignDataset(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	v3 := dataset.NewVocabulary()
	for _, name := range m.Items() {
		v3.Intern(name)
	}
	wantQ := m.Assign(dataset.NewTransaction(v3.Intern("milk"), v3.Intern("bread"), v3.Intern("quinoa"), v3.Intern("kale")))
	if gotQ[0] != wantQ {
		t.Fatalf("unknown items handled differently: %d vs %d", gotQ[0], wantQ)
	}

	// Models frozen from raw ids cannot translate names.
	raw, err := FreezeSets(d.Trans, [][]int{{0, 1}, {3, 4}}, nil, 0.2, 0.3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.AssignDataset(rev, 1); err == nil || !strings.Contains(err.Error(), "vocabulary") {
		t.Fatalf("vocabless model: err = %v", err)
	}
}

// TestModelSparseItemIDs pins the index's sparse-postings fallback: a
// model whose labeled points carry item ids far beyond the data (legal
// through FreezeSets, and reachable from a checksummed model file) must
// neither over-allocate a dense max-id-sized postings array nor change a
// single assignment, in-process or across a save/load round trip.
func TestModelSparseItemIDs(t *testing.T) {
	huge := dataset.Item(1<<31 - 2)
	ts := []dataset.Transaction{
		dataset.NewTransaction(1, 2, 3, huge),
		dataset.NewTransaction(1, 2, 4, huge-1),
		dataset.NewTransaction(5_000_000, 6_000_000, 7_000_000),
		dataset.NewTransaction(5_000_000, 6_000_000, 8_000_000),
		dataset.NewTransaction(1, 2, 3, 4),
		dataset.NewTransaction(5_000_000, 6_000_000, 7_000_000, 8_000_000),
		dataset.NewTransaction(9, 10, 11),
	}
	m, err := FreezeSets(ts, [][]int{{0, 1}, {2, 3}}, nil, 0.4, MarketBasketF(0.4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !m.lb.ix.SparsePostings() {
		t.Fatalf("dense postings array built over a %d-wide id space", huge)
	}
	if m.lb.ix.Pairwise() {
		t.Fatal("sparse ids fell back to the pairwise path; the map index should serve them")
	}
	queries := ts[4:]
	want := m.assignReference(queries)
	if got := m.AssignBatch(queries, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("sparse postings disagree with the pairwise reference: %v vs %v", got, want)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4096 {
		t.Fatalf("sparse-id model serialized to %d bytes; the ids should cost 4 bytes each", buf.Len())
	}
	loaded, err := LoadModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.AssignBatch(queries, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded sparse-id model disagrees: %v vs %v", got, want)
	}
}

// TestLabelerDensePostingsStayDense guards the crossover: ordinary
// vocabulary-interned ids must keep the dense array (the hot path the
// oracle tests measure), not quietly degrade to map lookups.
func TestLabelerDensePostingsStayDense(t *testing.T) {
	ts, _ := groupedData(3, 30, 7)
	m, err := FreezeSets(ts, [][]int{{0, 1, 2}, {30, 31}, {60, 61, 62}}, nil, 0.3, 0.25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.lb.ix.Pairwise() || m.lb.ix.SparsePostings() {
		t.Fatal("dense ids built no dense postings array")
	}
}
