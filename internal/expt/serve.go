package expt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/synth"
)

// ServeBenchRow is one point of the HTTP serving sweep: a fresh rockserve
// stack (coalescing batcher + hot-swappable model) under a fixed client
// concurrency, with client-side latency percentiles and server-side
// batching effectiveness.
type ServeBenchRow struct {
	N                 int     `json:"n"`
	QueryPool         int     `json:"query_pool"`
	Workers           int     `json:"workers"`
	Concurrency       int     `json:"concurrency"`
	Requests          int     `json:"requests"`
	QueriesPerRequest int     `json:"queries_per_request"`
	Sec               float64 `json:"sec"`
	RPS               float64 `json:"rps"`
	QPS               float64 `json:"qps"`
	// Client-side exact request latencies (not the server histogram).
	LatMeanMs float64 `json:"lat_mean_ms"`
	LatP50Ms  float64 `json:"lat_p50_ms"`
	LatP95Ms  float64 `json:"lat_p95_ms"`
	LatP99Ms  float64 `json:"lat_p99_ms"`
	// Server-side batching counters for the same run.
	Batches          int64   `json:"batches"`
	CoalescedBatches int64   `json:"coalesced_batches"`
	MeanBatch        float64 `json:"mean_batch"`
	MaxBatch         int64   `json:"max_batch"`
}

// ServeBenchReport is the BENCH_serve.json payload.
type ServeBenchReport struct {
	Host       string          `json:"host"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	NumCPU     int             `json:"numcpu"`
	Quick      bool            `json:"quick"`
	Rows       []ServeBenchRow `json:"rows"`
	Notes      []string        `json:"notes"`
}

// labelFixtureTheta is the θ the labeling workload is built and served at.
const labelFixtureTheta = 0.6

// LabelFixture builds the labeling workload shared by the rockbench
// -serve sweep and the root BenchmarkAssign* and BenchmarkModelSaveLoad
// micro-benchmarks: a basket dataset of n transactions whose every 5th
// transaction forms the sample (the generator orders by cluster
// template, so a prefix would miss most clusters), clustered with full
// ROCK at θ=0.6; L_i sets take every 4th member of each cluster capped
// at 50 — the shape the default LabelFraction/MaxLabelPoints would draw
// — mapped back to dataset-global indices; the remaining points are the
// candidates.
func LabelFixture(n int, seed int64) (ts []dataset.Transaction, candidates []int, sets [][]int, err error) {
	k := 10
	d := synth.Basket(synth.BasketConfig{
		Transactions:    n,
		Clusters:        k,
		TemplateItems:   15,
		TransactionSize: 12,
		Seed:            seed + int64(n),
	})
	var sampleIdx []int
	var sampleTrans []dataset.Transaction
	for i := 0; i < n; i += 5 {
		sampleIdx = append(sampleIdx, i)
		sampleTrans = append(sampleTrans, d.Trans[i])
	}
	res, err := core.Cluster(sampleTrans, core.Config{Theta: labelFixtureTheta, K: k, Seed: seed + 1})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("expt: clustering the label fixture sample: %w", err)
	}
	sets = make([][]int, 0, len(res.Clusters))
	for _, members := range res.Clusters {
		var li []int
		for i := 0; i < len(members) && len(li) < 50; i += 4 {
			li = append(li, sampleIdx[members[i]])
		}
		sets = append(sets, li)
	}
	candidates = make([]int, 0, n-len(sampleIdx))
	for p := 0; p < n; p++ {
		if p%5 != 0 {
			candidates = append(candidates, p)
		}
	}
	return d.Trans, candidates, sets, nil
}

// BenchServe drives concurrent assignment load against an in-process
// rockserve HTTP stack and writes latency percentiles, throughput, and
// batching effectiveness as JSON — the perf trajectory record behind
// `rockbench -serve`. The server is the real thing end to end: a TCP
// listener, the serve.Handler mux, JSON bodies, and the coalescing
// batcher; only the network is loopback. Response correctness against
// Model.AssignBatch is verified before any timing.
func BenchServe(w io.Writer, opts Options) error {
	n := 12500
	perClient := 100
	if opts.Quick {
		n = 2500
		perClient = 40
	}
	const queriesPerRequest = 8
	theta := labelFixtureTheta

	ts, candidates, sets, err := LabelFixture(n, opts.Seed)
	if err != nil {
		return err
	}
	model, err := core.FreezeSets(ts, sets, nil, theta, core.MarketBasketF(theta), nil)
	if err != nil {
		return fmt.Errorf("expt: freezing the serve fixture model: %w", err)
	}
	pool := make([]dataset.Transaction, 0, len(candidates))
	for _, p := range candidates {
		pool = append(pool, ts[p])
	}
	want := model.AssignBatch(pool, 1)

	report := ServeBenchReport{
		Host:       hostName(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Quick:      opts.Quick,
		Notes: []string{
			cpuNote(),
			"each row is a fresh in-process rockserve stack (TCP loopback listener + serve.Handler) under `concurrency` client goroutines, each issuing `requests/concurrency` POST /assign calls of `queries_per_request` raw-id queries from the labeling workload's candidate pool.",
			"latency percentiles are exact client-side wall times per request (JSON encode → HTTP round trip → decode), not the server's bucketed histogram; throughput counts completed requests (rps) and queries (qps) over the whole run.",
			"batches/coalesced_batches/mean_batch/max_batch are the server's own counters for the run: how effectively concurrent requests shared AssignBatch flushes (MaxBatch 256, FlushEvery 1ms — the server defaults).",
			"every response was verified against Model.AssignBatch before timing; a mismatched response aborts the sweep.",
			"latency at higher concurrency includes queueing delay on a saturated host — compare rows at the same workers setting to see the coalescing win, and across workers for scaling (meaningful only when GOMAXPROCS exceeds one).",
		},
	}

	for _, workers := range []int{1, 2} {
		for _, concurrency := range []int{4, 16} {
			row, err := serveOnce(model, pool, want, workers, concurrency, perClient, queriesPerRequest)
			if err != nil {
				return err
			}
			row.N = n
			report.Rows = append(report.Rows, row)
		}
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return fmt.Errorf("expt: encoding serve bench report: %w", err)
	}
	return nil
}

// serveOnce runs one (workers, concurrency) cell: boots a fresh server on
// a loopback listener, fires the client fleet, and collapses the measured
// latencies into a row.
func serveOnce(model *core.Model, pool []dataset.Transaction, want []int, workers, concurrency, perClient, queriesPerRequest int) (ServeBenchRow, error) {
	srv := serve.New(model, serve.Config{Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServeBenchRow{}, fmt.Errorf("expt: serve bench listener: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String() + "/assign"

	// Pre-encode each client's request bodies so the timed loop measures
	// the serving stack, not the load generator building JSON.
	type call struct {
		body []byte
		want []int
	}
	clients := make([][]call, concurrency)
	next := 0
	for c := range clients {
		clients[c] = make([]call, perClient)
		for r := range clients[c] {
			ids := make([][]int32, queriesPerRequest)
			expect := make([]int, queriesPerRequest)
			for q := range ids {
				t := pool[next%len(pool)]
				expect[q] = want[next%len(pool)]
				next++
				row := make([]int32, len(t))
				for j, it := range t {
					row[j] = int32(it)
				}
				ids[q] = row
			}
			body, err := json.Marshal(serve.AssignRequest{IDs: ids})
			if err != nil {
				return ServeBenchRow{}, err
			}
			clients[c][r] = call{body: body, want: expect}
		}
	}

	latencies := make([][]float64, concurrency)
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			latencies[c] = make([]float64, 0, perClient)
			for _, call := range clients[c] {
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(call.body))
				if err != nil {
					errs[c] = err
					return
				}
				var out serve.AssignResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					errs[c] = err
					return
				}
				latencies[c] = append(latencies[c], time.Since(t0).Seconds())
				if !reflect.DeepEqual(out.Assignments, call.want) {
					errs[c] = fmt.Errorf("expt: served assignments disagree with Model.AssignBatch — refusing to record timings")
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	for _, err := range errs {
		if err != nil {
			return ServeBenchRow{}, err
		}
	}

	var all []float64
	for _, ls := range latencies {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	mean := 0.0
	for _, l := range all {
		mean += l
	}
	mean /= float64(len(all))

	st := srv.Stats()
	requests := concurrency * perClient
	return ServeBenchRow{
		QueryPool:         len(pool),
		Workers:           workers,
		Concurrency:       concurrency,
		Requests:          requests,
		QueriesPerRequest: queriesPerRequest,
		Sec:               wall,
		RPS:               float64(requests) / wall,
		QPS:               float64(requests*queriesPerRequest) / wall,
		LatMeanMs:         mean * 1e3,
		LatP50Ms:          percentile(all, 0.50) * 1e3,
		LatP95Ms:          percentile(all, 0.95) * 1e3,
		LatP99Ms:          percentile(all, 0.99) * 1e3,
		Batches:           st.Batches,
		CoalescedBatches:  st.CoalescedBatches,
		MeanBatch:         st.MeanBatch,
		MaxBatch:          st.MaxBatch,
	}, nil
}

// percentile reads the q-th percentile from an ascending-sorted sample by
// nearest rank.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	if i > len(sorted)-1 {
		i = len(sorted) - 1
	}
	return sorted[i]
}
