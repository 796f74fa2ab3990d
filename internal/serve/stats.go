package serve

import (
	"sync/atomic"
	"time"
)

// Service statistics.
//
// Counters are plain atomics updated on the request path; the latency
// histogram uses fixed power-of-two buckets so observation is two atomic
// adds and quantile estimation needs no samples retained. The numbers are
// operational (monitoring, /stats, the rockbench -serve summary) — exact
// per-request latencies for benchmarking are measured client-side.

// histBuckets is the number of latency buckets: bucket i counts requests
// with latency in [2^i, 2^(i+1)) microseconds, the last bucket catching
// everything beyond ~0.5h.
const histBuckets = 32

// latencyHist is a lock-free exponential histogram of request latencies.
type latencyHist struct {
	counts [histBuckets]atomic.Int64
	n      atomic.Int64
	sumNs  atomic.Int64
}

// observe records one request latency.
func (h *latencyHist) observe(d time.Duration) {
	us := d.Microseconds()
	b := 0
	for us > 1 && b < histBuckets-1 {
		us >>= 1
		b++
	}
	h.counts[b].Add(1)
	h.n.Add(1)
	h.sumNs.Add(d.Nanoseconds())
}

// quantile estimates the q-th latency quantile (q in (0,1)) by linear
// interpolation inside the bucket where the cumulative count crosses
// q·n. Zero observations estimate zero.
func (h *latencyHist) quantile(q float64) time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	cum := 0.0
	for b := 0; b < histBuckets; b++ {
		c := float64(h.counts[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo := time.Duration(1<<b) * time.Microsecond
			if b == 0 {
				lo = 0
			}
			hi := time.Duration(1<<(b+1)) * time.Microsecond
			frac := (rank - cum) / c
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += c
	}
	return time.Duration(1<<histBuckets) * time.Microsecond
}

// mean returns the mean observed latency.
func (h *latencyHist) mean() time.Duration {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// serverStats aggregates the counters behind GET /stats.
type serverStats struct {
	started time.Time

	requests     atomic.Int64 // /assign requests answered
	queries      atomic.Int64 // transactions assigned
	assigned     atomic.Int64 // queries that matched a cluster
	outliers     atomic.Int64 // queries answered -1
	badRequests  atomic.Int64 // /assign requests rejected before batching
	reloads      atomic.Int64 // successful model swaps
	failedLoads  atomic.Int64 // reload attempts rejected at load/validate
	batches      atomic.Int64 // AssignBatch flushes
	batchQueries atomic.Int64 // queries across all flushes
	coalesced    atomic.Int64 // flushes serving more than one request
	maxBatch     atomic.Int64 // largest flush, in queries

	latency latencyHist
}

// observeRequest records one answered request: its queries, split into
// the assigned ones and the outliers, and its latency.
func (st *serverStats) observeRequest(assignments []int, elapsed time.Duration) {
	assigned := int64(0)
	for _, ci := range assignments {
		if ci >= 0 {
			assigned++
		}
	}
	st.requests.Add(1)
	st.queries.Add(int64(len(assignments)))
	st.assigned.Add(assigned)
	st.outliers.Add(int64(len(assignments)) - assigned)
	st.latency.observe(elapsed)
}

// observeBatch records one flush of the coalescing batcher.
func (st *serverStats) observeBatch(queries, requests int) {
	st.batches.Add(1)
	st.batchQueries.Add(int64(queries))
	if requests > 1 {
		st.coalesced.Add(1)
	}
	for {
		cur := st.maxBatch.Load()
		if int64(queries) <= cur || st.maxBatch.CompareAndSwap(cur, int64(queries)) {
			return
		}
	}
}

// Stats is the JSON shape of GET /stats — a monitoring snapshot of the
// serving process: traffic counters, batching effectiveness, model
// generation, and latency quantiles estimated from the histogram.
type Stats struct {
	Generation    uint64  `json:"generation"`
	Model         string  `json:"model"`
	UptimeSec     float64 `json:"uptime_sec"`
	Requests      int64   `json:"requests"`
	Queries       int64   `json:"queries"`
	Assigned      int64   `json:"assigned"`
	Outliers      int64   `json:"outliers"`
	BadRequests   int64   `json:"bad_requests"`
	Reloads       int64   `json:"reloads"`
	FailedReloads int64   `json:"failed_reloads"`

	Batches          int64   `json:"batches"`
	CoalescedBatches int64   `json:"coalesced_batches"`
	MeanBatch        float64 `json:"mean_batch"`
	MaxBatch         int64   `json:"max_batch"`

	LatencyMeanMs float64 `json:"latency_mean_ms"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP95Ms  float64 `json:"latency_p95_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
}

// snapshot renders the counters into the exported Stats shape.
func (st *serverStats) snapshot(gen uint64, model string) Stats {
	s := Stats{
		Generation:    gen,
		Model:         model,
		UptimeSec:     time.Since(st.started).Seconds(),
		Requests:      st.requests.Load(),
		Queries:       st.queries.Load(),
		Assigned:      st.assigned.Load(),
		Outliers:      st.outliers.Load(),
		BadRequests:   st.badRequests.Load(),
		Reloads:       st.reloads.Load(),
		FailedReloads: st.failedLoads.Load(),

		Batches:          st.batches.Load(),
		CoalescedBatches: st.coalesced.Load(),
		MaxBatch:         st.maxBatch.Load(),

		LatencyMeanMs: st.latency.mean().Seconds() * 1e3,
		LatencyP50Ms:  st.latency.quantile(0.50).Seconds() * 1e3,
		LatencyP95Ms:  st.latency.quantile(0.95).Seconds() * 1e3,
		LatencyP99Ms:  st.latency.quantile(0.99).Seconds() * 1e3,
	}
	if s.Batches > 0 {
		s.MeanBatch = float64(st.batchQueries.Load()) / float64(s.Batches)
	}
	return s
}
