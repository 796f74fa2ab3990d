package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/similarity"
)

// rawModel freezes a tiny two-cluster model over raw item ids. With
// flip=true the cluster order is reversed, so the same query answers
// with the other index — the observable difference the hot-swap tests
// key on.
func rawModel(t testing.TB, flip bool) *core.Model {
	t.Helper()
	ts := []dataset.Transaction{
		dataset.NewTransaction(0, 1, 2),
		dataset.NewTransaction(0, 1, 3),
		dataset.NewTransaction(10, 11, 12),
		dataset.NewTransaction(10, 11, 13),
	}
	sets := [][]int{{0, 1}, {2, 3}}
	if flip {
		sets = [][]int{{2, 3}, {0, 1}}
	}
	m, err := core.FreezeSets(ts, sets, nil, 0.4, core.MarketBasketF(0.4), similarity.Jaccard)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// vocabModel clusters a small named-item dataset and freezes it with its
// vocabulary, so /assign accepts item names.
func vocabModel(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	v := dataset.NewVocabulary()
	d := &dataset.Dataset{Vocab: v}
	for _, line := range [][]string{
		{"milk", "bread", "butter"},
		{"milk", "bread", "jam"},
		{"milk", "butter", "jam"},
		{"beer", "chips", "salsa"},
		{"beer", "chips", "dip"},
		{"beer", "salsa", "dip"},
	} {
		var items []dataset.Item
		for _, tok := range line {
			items = append(items, v.Intern(tok))
		}
		d.Trans = append(d.Trans, dataset.NewTransaction(items...))
	}
	cfg := core.Config{Theta: 0.3, K: 2, Seed: 1}
	res, err := core.Cluster(d.Trans, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.FreezeDataset(d, res, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, d
}

// postAssign drives one POST /assign and decodes the response.
func postAssign(t *testing.T, url string, req AssignRequest) (AssignResponse, int) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/assign", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out AssignResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

// TestAssignIDs pins the raw-id request path against the model's own
// AssignBatch: the HTTP stack may batch and shard however it likes, but
// the assignments must be exactly the model's.
func TestAssignIDs(t *testing.T) {
	m := rawModel(t, false)
	s := New(m, Config{FlushEvery: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	ids := [][]int32{{0, 1, 4}, {10, 11, 4}, {20, 21}, {0, 1, 2, 3}}
	queries := make([]dataset.Transaction, len(ids))
	for i, q := range ids {
		items := make([]dataset.Item, len(q))
		for j, id := range q {
			items[j] = dataset.Item(id)
		}
		queries[i] = dataset.NewTransaction(items...)
	}
	want := m.AssignBatch(queries, 1)

	got, code := postAssign(t, srv.URL, AssignRequest{IDs: ids})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !reflect.DeepEqual(got.Assignments, want) {
		t.Fatalf("served %v, model says %v", got.Assignments, want)
	}
	if got.Generation != 1 {
		t.Fatalf("generation %d at startup", got.Generation)
	}
}

// TestAssignByName pins the item-name path: names translate through the
// frozen vocabulary exactly as AssignDataset translates them — unknown
// names dilute |t| without matching anything.
func TestAssignByName(t *testing.T) {
	m, _ := vocabModel(t)
	s := New(m, Config{FlushEvery: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	names := [][]string{
		{"milk", "bread", "jam"},
		{"beer", "chips", "quinoa"},
		{"quinoa", "kale"},
	}
	// Expected: the same names read under a fresh vocabulary, assigned
	// through the model's own translation path.
	v := dataset.NewVocabulary()
	q := &dataset.Dataset{Vocab: v}
	for _, line := range names {
		var items []dataset.Item
		for _, tok := range line {
			items = append(items, v.Intern(tok))
		}
		q.Trans = append(q.Trans, dataset.NewTransaction(items...))
	}
	want, err := m.AssignDataset(q, 1)
	if err != nil {
		t.Fatal(err)
	}

	got, code := postAssign(t, srv.URL, AssignRequest{Queries: names})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !reflect.DeepEqual(got.Assignments, want) {
		t.Fatalf("served %v, AssignDataset says %v", got.Assignments, want)
	}
}

// TestAssignRejects pins the request-validation failures: names against
// a vocabless model, both representations at once, neither, negative
// ids, and undecodable JSON — all 400s, all counted, none served.
func TestAssignRejects(t *testing.T) {
	s := New(rawModel(t, false), Config{FlushEvery: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	for name, req := range map[string]AssignRequest{
		"names for a vocabless model": {Queries: [][]string{{"milk"}}},
		"both queries and ids":        {Queries: [][]string{{"a"}}, IDs: [][]int32{{1}}},
		"neither":                     {},
		"negative id":                 {IDs: [][]int32{{-4}}},
	} {
		if _, code := postAssign(t, srv.URL, req); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}
	resp, err := http.Post(srv.URL+"/assign", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}
	if st := s.Stats(); st.BadRequests != 5 || st.Requests != 0 {
		t.Fatalf("stats after rejects: %+v", st)
	}
}

// TestBatchCoalescing proves concurrent requests share one flush,
// deterministically: with MaxBatch = n and a deadline too far to fire,
// n−1 single-query submissions park in the open batch and the n-th
// triggers the size flush — one AssignBatch call answers all n.
func TestBatchCoalescing(t *testing.T) {
	const n = 8
	m := rawModel(t, false)
	s := New(m, Config{MaxBatch: n, FlushEvery: time.Hour})

	var wg sync.WaitGroup
	results := make([][]int, n)
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lm := s.acquire()
			defer lm.release()
			results[i] = s.batch.submit(lm, []dataset.Transaction{dataset.NewTransaction(0, 1, 4)})
		}(i)
	}
	for s.batch.pendingWaiters() != n-1 {
		time.Sleep(time.Millisecond)
	}
	lm := s.acquire()
	results[n-1] = s.batch.submit(lm, []dataset.Transaction{dataset.NewTransaction(0, 1, 4)})
	lm.release()
	wg.Wait()

	for i, r := range results {
		if len(r) != 1 || r[0] != 0 {
			t.Fatalf("request %d answered %v, want [0]", i, r)
		}
	}
	st := s.Stats()
	if st.Batches != 1 {
		t.Fatalf("%d flushes for %d concurrent requests; want 1", st.Batches, n)
	}
	if st.CoalescedBatches != 1 || st.MaxBatch != n || st.MeanBatch != n {
		t.Fatalf("batch stats: %+v", st)
	}
}

// TestFlushDeadline proves a lone request is not held hostage by a
// never-filling batch: the deadline flush answers it.
func TestFlushDeadline(t *testing.T) {
	s := New(rawModel(t, false), Config{MaxBatch: 1 << 20, FlushEvery: 2 * time.Millisecond})
	lm := s.acquire()
	defer lm.release()
	start := time.Now()
	got := s.batch.submit(lm, []dataset.Transaction{dataset.NewTransaction(10, 11, 4)})
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("answered %v, want [1]", got)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("deadline flush took %v", waited)
	}
}

// TestServeReloadDrain is the hot-swap contract under load, run under
// -race in CI: mid-traffic, the model is swapped for one that answers
// the same queries differently. Every request must complete (none
// dropped), every response must be internally consistent — generation g
// answering exactly as model g does, never a torn mixture — the swap
// must report the old generation drained, and traffic after the swap
// must be answered by the new generation.
func TestServeReloadDrain(t *testing.T) {
	v1 := rawModel(t, false)
	v2 := rawModel(t, true)
	s := New(v1, Config{MaxBatch: 4, FlushEvery: 100 * time.Microsecond, DrainTimeout: 30 * time.Second})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// One query both models answer, differently: v1 says 0, v2 says 1.
	ids := [][]int32{{0, 1, 4}}
	const want1, want2 = 0, 1

	const clients = 4
	const perClient = 60
	var sent, answered, gen1Seen, gen2Seen, torn atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				sent.Add(1)
				got, code := postAssign(t, srv.URL, AssignRequest{IDs: ids})
				if code != http.StatusOK {
					continue // counted as dropped by the final check
				}
				answered.Add(1)
				switch got.Generation {
				case 1:
					gen1Seen.Add(1)
					if got.Assignments[0] != want1 {
						torn.Add(1)
					}
				case 2:
					gen2Seen.Add(1)
					if got.Assignments[0] != want2 {
						torn.Add(1)
					}
				default:
					torn.Add(1)
				}
			}
		}()
	}

	// Swap only once v1 has demonstrably served traffic, so both
	// generations are exercised.
	for s.Stats().Requests == 0 {
		time.Sleep(time.Millisecond)
	}
	gen, drained := s.Swap(v2)
	if gen != 2 {
		t.Fatalf("swap produced generation %d", gen)
	}
	if !drained {
		t.Fatal("swap reports the v1 in-flight requests did not drain")
	}
	wg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("%d responses were inconsistent with their generation's model", torn.Load())
	}
	if sent.Load() != answered.Load() {
		t.Fatalf("dropped requests across the swap: sent %d, answered %d", sent.Load(), answered.Load())
	}
	if gen1Seen.Load() == 0 {
		t.Fatal("no response from generation 1; the swap raced ahead of all traffic")
	}
	if gen2Seen.Load() == 0 {
		t.Fatal("no response from generation 2 after the swap")
	}
	// The swap drained: everything arriving now is generation 2.
	got, _ := postAssign(t, srv.URL, AssignRequest{IDs: ids})
	if got.Generation != 2 || got.Assignments[0] != want2 {
		t.Fatalf("post-swap response %+v, want generation 2 answering %d", got, want2)
	}
	if st := s.Stats(); st.Reloads != 1 || st.Generation != 2 {
		t.Fatalf("stats after swap: %+v", st)
	}
}

// TestSwapGenerationBoundary pins the batcher's defining hot-swap rule:
// a batch opened under v1 is flushed with v1 — never mixed into v2's id
// space — and the v1 waiter completes even though the swap happened
// while it was parked. The swap's drain wait and the flush are mutually
// dependent, so this is also the deadlock regression test.
func TestSwapGenerationBoundary(t *testing.T) {
	v1 := rawModel(t, false)
	v2 := rawModel(t, true)
	// Deadline far out: only the generation boundary can flush v1's batch,
	// and only the size threshold can flush v2's.
	s := New(v1, Config{MaxBatch: 2, FlushEvery: time.Hour, DrainTimeout: 30 * time.Second})

	lm1 := s.acquire()
	r1 := make(chan []int, 1)
	go func() {
		defer lm1.release()
		r1 <- s.batch.submit(lm1, []dataset.Transaction{dataset.NewTransaction(0, 1, 4)})
	}()
	for s.batch.pendingWaiters() != 1 {
		time.Sleep(time.Millisecond)
	}

	swapped := make(chan bool)
	go func() {
		_, drained := s.Swap(v2)
		swapped <- drained
	}()
	for s.Generation() != 2 {
		time.Sleep(time.Millisecond)
	}

	// v1's parked request is still waiting; the first v2 submission must
	// flush it rather than absorb into the same batch. Two queries reach
	// MaxBatch, so v2's own batch flushes on size.
	lm2 := s.acquire()
	got2 := s.batch.submit(lm2, []dataset.Transaction{
		dataset.NewTransaction(0, 1, 4),
		dataset.NewTransaction(10, 11, 4),
	})
	lm2.release()
	if len(got2) != 2 || got2[0] != 1 || got2[1] != 0 {
		t.Fatalf("v2 request answered %v, want [1 0] (v2's flipped order)", got2)
	}
	got1 := <-r1
	if len(got1) != 1 || got1[0] != 0 {
		t.Fatalf("v1's parked request answered %v, want [0] (v1's order)", got1)
	}
	if drained := <-swapped; !drained {
		t.Fatal("swap did not report v1 drained")
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("%d flushes; the generation boundary should force exactly 2", st.Batches)
	}
}

// TestReloadEndpoint drives POST /-/reload end to end: a valid file
// swaps generations; a corrupt file is rejected with 422 while the old
// generation keeps serving; a missing body reloads from ModelPath.
func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	writeModel := func(name string, m *core.Model) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v1 := rawModel(t, false)
	defaultPath := writeModel("default.rock", v1)
	v2Path := writeModel("v2.rock", rawModel(t, true))
	corruptPath := filepath.Join(dir, "corrupt.rock")
	if err := os.WriteFile(corruptPath, []byte("ROCKMODLgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s := New(v1, Config{ModelPath: defaultPath, FlushEvery: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	reload := func(body string) (*http.Response, ReloadResponse) {
		var buf bytes.Buffer
		buf.WriteString(body)
		resp, err := http.Post(srv.URL+"/-/reload", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out ReloadResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	resp, out := reload(fmt.Sprintf(`{"path": %q}`, v2Path))
	if resp.StatusCode != http.StatusOK || out.Generation != 2 || !out.Drained {
		t.Fatalf("reload v2: status %d, %+v", resp.StatusCode, out)
	}
	got, _ := postAssign(t, srv.URL, AssignRequest{IDs: [][]int32{{0, 1, 4}}})
	if got.Generation != 2 || got.Assignments[0] != 1 {
		t.Fatalf("after reload: %+v, want generation 2 answering 1", got)
	}

	// A corrupt file must not displace the serving model.
	resp, _ = reload(fmt.Sprintf(`{"path": %q}`, corruptPath))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("corrupt reload: status %d, want 422", resp.StatusCode)
	}
	if s.Generation() != 2 {
		t.Fatalf("corrupt reload bumped the generation to %d", s.Generation())
	}

	// No body: fall back to ModelPath (v1's file), generation 3.
	resp, out = reload("")
	if resp.StatusCode != http.StatusOK || out.Generation != 3 {
		t.Fatalf("default-path reload: status %d, %+v", resp.StatusCode, out)
	}
	if st := s.Stats(); st.Reloads != 2 || st.FailedReloads != 1 {
		t.Fatalf("stats after reloads: %+v", st)
	}
}

// TestHealthzAndStats smokes the observability endpoints.
func TestHealthzAndStats(t *testing.T) {
	s := New(rawModel(t, false), Config{FlushEvery: time.Millisecond})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	postAssign(t, srv.URL, AssignRequest{IDs: [][]int32{{0, 1, 4}, {20, 21}}})

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, health)
	}

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Queries != 2 || st.Assigned != 1 || st.Outliers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LatencyP50Ms <= 0 || st.LatencyP99Ms < st.LatencyP50Ms {
		t.Fatalf("latency quantiles misordered: %+v", st)
	}
}

// TestLatencyHist pins the histogram's quantile estimator on a known
// distribution: observations spanning buckets must produce ordered,
// bracketed quantiles and an exact mean.
func TestLatencyHist(t *testing.T) {
	var h latencyHist
	for i := 0; i < 90; i++ {
		h.observe(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.observe(10 * time.Millisecond)
	}
	p50, p95, p99 := h.quantile(0.50), h.quantile(0.95), h.quantile(0.99)
	if p50 < 64*time.Microsecond || p50 > 128*time.Microsecond {
		t.Fatalf("p50 = %v, want within the 100µs bucket", p50)
	}
	if p95 < 8*time.Millisecond || p95 > 16*time.Millisecond {
		t.Fatalf("p95 = %v, want within the 10ms bucket", p95)
	}
	if p99 < p95 || p95 < p50 {
		t.Fatalf("quantiles misordered: %v %v %v", p50, p95, p99)
	}
	wantMean := (90*100*time.Microsecond + 10*10*time.Millisecond) / 100
	if h.mean() != wantMean {
		t.Fatalf("mean = %v, want %v", h.mean(), wantMean)
	}
	var empty latencyHist
	if empty.quantile(0.5) != 0 || empty.mean() != 0 {
		t.Fatal("empty histogram should estimate zero")
	}
}
