// Package serve is the HTTP serving stack over frozen rock models — the
// "millions of users" leg of the paper's scaling story: cluster a
// Chernoff-sized sample once, freeze it into a Model, and answer
// assignment traffic from the frozen index forever.
//
// The server wraps Model.AssignBatch with two service-grade mechanisms:
//
//   - Request coalescing (batcher.go): concurrent POST /assign requests
//     accumulate into a shared batch, flushed by size or deadline, that
//     one AssignBatch call answers. AssignBatch's workers claim 64
//     queries at a time, so a flush of 64 queries or fewer runs on one
//     goroutine and a larger one shards; coalescing saves per-call
//     overhead and costs up to FlushEvery of waiting.
//   - Atomic hot-swap reload: the current model lives behind an
//     atomic.Pointer; POST /-/reload (or SIGHUP in cmd/rockserve) loads
//     and fully validates the new file BEFORE swapping, then waits for
//     requests pinned to the old generation to drain. In-flight requests
//     finish on the model they started with, new requests are answered by
//     the new generation, and no request is ever dropped — a failed load
//     leaves the old model serving untouched.
//
// Endpoints: POST /assign (queries by item name or raw id), GET /healthz,
// GET /stats (counters, batching effectiveness, latency quantiles),
// POST /-/reload. The handler composes with any http.Server; graceful
// shutdown is the caller's http.Server.Shutdown, which waits for the
// in-flight handlers — and therefore for their batches — to finish.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/vclock"
)

// Config parameterizes a Server. The zero value serves with the defaults
// noted per field.
type Config struct {
	// ModelPath is the file Reload falls back to when a reload request
	// names no path — the path cmd/rockserve loaded the model from.
	ModelPath string
	// MaxBatch flushes the open batch when it reaches this many queries
	// (default 256).
	MaxBatch int
	// FlushEvery flushes the open batch this long after it opens, whatever
	// its size (default 1ms). The deadline bounds the latency cost a
	// lone request pays for coalescing.
	FlushEvery time.Duration
	// Workers is the AssignBatch worker count per flush (0 = GOMAXPROCS).
	Workers int
	// DrainTimeout bounds how long a swap waits for the retired
	// generation's in-flight requests (default 30s). Requests past the
	// deadline still complete — the timeout only stops the reload
	// response from waiting on them.
	DrainTimeout time.Duration
	// Clock supplies the batcher's flush-deadline timers (nil =
	// vclock.Real). Tests inject a vclock.Fake to drive the
	// size-or-deadline race deterministically; production callers leave
	// it nil.
	Clock vclock.Clock
	// MaxBodyBytes caps request body sizes on the JSON endpoints (POST
	// /assign here, POST /ingest in the streaming handler); an oversized
	// body gets 413 instead of an unbounded decode. Default 8 MiB;
	// negative disables the cap.
	MaxBodyBytes int64
}

// DefaultMaxBodyBytes is the request-body cap applied when
// Config.MaxBodyBytes is zero.
const DefaultMaxBodyBytes = 8 << 20

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.FlushEvery <= 0 {
		c.FlushEvery = time.Millisecond
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = DefaultMaxBodyBytes
	}
	return c
}

// liveModel is one generation of the served model: the frozen Model, its
// name→id index for query translation, and the reference count that lets
// a hot swap wait for the generation's in-flight requests to drain.
type liveModel struct {
	model  *core.Model
	gen    uint64
	byName map[string]dataset.Item // nil when the model froze no vocabulary

	refs      atomic.Int64
	retired   atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once
}

func newLive(m *core.Model, gen uint64) *liveModel {
	lm := &liveModel{model: m, gen: gen, drained: make(chan struct{})}
	if items := m.Items(); items != nil {
		lm.byName = make(map[string]dataset.Item, len(items))
		for id, name := range items {
			lm.byName[name] = dataset.Item(id)
		}
	}
	return lm
}

// tryAcquire pins the generation for one request. It fails when the
// generation was retired between the caller's pointer load and the pin —
// the caller re-loads the current pointer and retries, landing on the
// new generation.
func (lm *liveModel) tryAcquire() bool {
	lm.refs.Add(1)
	if lm.retired.Load() {
		lm.release()
		return false
	}
	return true
}

// release unpins one request and closes the drain gate when this was the
// last request of a retired generation.
func (lm *liveModel) release() {
	if lm.refs.Add(-1) == 0 && lm.retired.Load() {
		lm.drainOnce.Do(func() { close(lm.drained) })
	}
}

// retire marks the generation as no longer current and waits up to
// timeout for its pinned requests to finish. The retired flag is set
// before the count is read, and tryAcquire re-checks the flag after
// incrementing — so either the acquirer sees the retirement and backs
// off, or the retirer sees the acquirer's count and waits for it; no
// request is ever stranded on a generation the drain wait missed.
func (lm *liveModel) retire(timeout time.Duration) bool {
	lm.retired.Store(true)
	if lm.refs.Load() == 0 {
		lm.drainOnce.Do(func() { close(lm.drained) })
	}
	select {
	case <-lm.drained:
		return true
	case <-time.After(timeout):
		return false
	}
}

// Server serves assignment queries from a hot-swappable frozen model.
// Create one with New; all methods are safe for concurrent use.
type Server struct {
	cfg   Config
	cur   atomic.Pointer[liveModel]
	swap  sync.Mutex // serializes generation bumps
	batch *batcher
	stats *serverStats
}

// New builds a Server serving the given model.
func New(m *core.Model, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		stats: &serverStats{started: time.Now()},
	}
	s.batch = &batcher{
		maxBatch:   cfg.MaxBatch,
		flushEvery: cfg.FlushEvery,
		workers:    cfg.Workers,
		stats:      s.stats,
		clock:      cfg.Clock,
	}
	s.cur.Store(newLive(m, 1))
	return s
}

// acquire pins the current generation for one request. The loop resolves
// the acquire/retire race: a generation retired mid-acquire rejects the
// pin and the re-loaded pointer holds its successor.
func (s *Server) acquire() *liveModel {
	for {
		if lm := s.cur.Load(); lm.tryAcquire() {
			return lm
		}
	}
}

// Generation returns the current model generation (1 at startup,
// incremented per successful swap).
func (s *Server) Generation() uint64 { return s.cur.Load().gen }

// Model returns the currently served model.
func (s *Server) Model() *core.Model { return s.cur.Load().model }

// Swap atomically replaces the served model: new requests land on the
// new generation immediately, and the call then waits up to DrainTimeout
// for requests pinned to the old generation to finish. Returns the new
// generation and whether the old one fully drained within the deadline.
func (s *Server) Swap(m *core.Model) (gen uint64, drained bool) {
	s.swap.Lock()
	old := s.cur.Load()
	lm := newLive(m, old.gen+1)
	s.cur.Store(lm)
	s.swap.Unlock()
	drained = old.retire(s.cfg.DrainTimeout)
	s.stats.reloads.Add(1)
	return lm.gen, drained
}

// Reload loads, validates, and swaps in a model file. An unreadable or
// invalid file (wrong magic, version, checksum, corrupt payload — the
// ErrModel* taxonomy) leaves the current model serving and returns the
// load error; the swap happens only once the new model fully validated.
func (s *Server) Reload(path string) (gen uint64, drained bool, err error) {
	if path == "" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		return 0, false, errors.New("serve: no model path to reload from")
	}
	f, err := os.Open(path)
	if err != nil {
		s.stats.failedLoads.Add(1)
		return 0, false, fmt.Errorf("serve: reload: %w", err)
	}
	m, err := core.LoadModel(f)
	f.Close()
	if err != nil {
		s.stats.failedLoads.Add(1)
		return 0, false, fmt.Errorf("serve: reload %s: %w", path, err)
	}
	gen, drained = s.Swap(m)
	return gen, drained, nil
}

// Submit answers one batch of queries (already in the served model's
// item id space) through the coalescing batcher — the programmatic
// equivalent of POST /assign, used by the streaming ingester and the
// bench drivers. It pins the current generation for the duration of the
// call, so the returned assignments are exactly what AssignBatch on that
// generation's model computes, and the returned generation identifies
// which model answered. Counted in the serving stats like an HTTP
// request. Safe for concurrent use.
func (s *Server) Submit(qs []dataset.Transaction) (assignments []int, gen uint64) {
	start := s.cfg.Clock.Now()
	lm := s.acquire()
	defer lm.release()
	assignments = s.batch.submit(lm, qs)
	s.stats.observeRequest(assignments, s.cfg.Clock.Now().Sub(start))
	return assignments, lm.gen
}

// SubmitDirect answers one batch of queries on the current generation,
// bypassing the coalescing batcher: the assignment runs synchronously on
// the calling goroutine. The streaming refresh uses it to re-admit ring
// survivors against a just-swapped generation — going through the
// batcher there could strand a partial batch against a test-controlled
// clock, and the refresh goroutine has no latency to amortize. Counted
// in the serving stats like any other request. Safe for concurrent use.
func (s *Server) SubmitDirect(qs []dataset.Transaction) (assignments []int, gen uint64) {
	start := s.cfg.Clock.Now()
	lm := s.acquire()
	defer lm.release()
	assignments = lm.model.AssignBatch(qs, s.cfg.Workers)
	s.stats.observeRequest(assignments, s.cfg.Clock.Now().Sub(start))
	return assignments, lm.gen
}

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	lm := s.cur.Load()
	return s.stats.snapshot(lm.gen, lm.model.String())
}

// --- HTTP surface ---

// AssignRequest is the POST /assign body. Exactly one of Queries (item
// names, translated through the model's frozen vocabulary) or IDs (raw
// ids already in the model's item space) must be set.
type AssignRequest struct {
	Queries [][]string `json:"queries,omitempty"`
	IDs     [][]int32  `json:"ids,omitempty"`
}

// AssignResponse answers POST /assign: one cluster index per query in
// request order (-1 = outlier), plus the generation that answered —
// readers correlating answers across a hot swap can pin on it.
type AssignResponse struct {
	Assignments []int  `json:"assignments"`
	Generation  uint64 `json:"generation"`
}

// ReloadRequest is the optional POST /-/reload body.
type ReloadRequest struct {
	Path string `json:"path,omitempty"`
}

// ReloadResponse reports a completed reload.
type ReloadResponse struct {
	Generation uint64 `json:"generation"`
	Drained    bool   `json:"drained"`
	Model      string `json:"model"`
}

// Handler returns the server's HTTP surface, ready to mount on any
// http.Server (cmd/rockserve) or httptest server (the bench driver).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /assign", s.handleAssign)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /-/reload", s.handleReload)
	return mux
}

// queries translates a request into the pinned model's item id space.
// Unknown item names get fresh ids past the frozen vocabulary, distinct
// per name within the request — the RemapDataset semantics, so an unseen
// item dilutes |t| exactly as it would in-process.
func (lm *liveModel) queries(req *AssignRequest) ([]dataset.Transaction, error) {
	switch {
	case req.Queries != nil && req.IDs != nil:
		return nil, errors.New("request sets both queries and ids; send one")
	case req.Queries != nil:
		if lm.byName == nil {
			return nil, errors.New("model was frozen without a vocabulary; send ids instead of item names")
		}
		unknown := map[string]dataset.Item{}
		next := dataset.Item(len(lm.byName))
		out := make([]dataset.Transaction, len(req.Queries))
		items := make([]dataset.Item, 0, 32)
		for i, q := range req.Queries {
			items = items[:0]
			for _, name := range q {
				id, ok := lm.byName[name]
				if !ok {
					id, ok = unknown[name]
					if !ok {
						id = next
						next++
						unknown[name] = id
					}
				}
				items = append(items, id)
			}
			out[i] = dataset.NewTransaction(items...)
		}
		return out, nil
	case req.IDs != nil:
		out := make([]dataset.Transaction, len(req.IDs))
		for i, q := range req.IDs {
			items := make([]dataset.Item, len(q))
			for j, id := range q {
				if id < 0 {
					return nil, fmt.Errorf("query %d has negative item id %d", i, id)
				}
				items[j] = dataset.Item(id)
			}
			out[i] = dataset.NewTransaction(items...)
		}
		return out, nil
	default:
		return nil, errors.New("request carries neither queries nor ids")
	}
}

// LimitBody wraps a request body with the server's configured size cap
// (http.MaxBytesReader, so an oversized body aborts the decode and the
// connection, not the process). The streaming handler shares the cap for
// POST /ingest. A non-positive configured cap disables limiting.
func (s *Server) LimitBody(w http.ResponseWriter, r *http.Request) {
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
}

// DecodeStatus maps a JSON body-decode error to its HTTP status: 413
// when the body limit tripped, 400 otherwise.
func DecodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleAssign(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.LimitBody(w, r)
	var req AssignRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.stats.badRequests.Add(1)
		httpError(w, DecodeStatus(err), fmt.Errorf("decoding request: %w", err))
		return
	}
	lm := s.acquire()
	defer lm.release()
	qs, err := lm.queries(&req)
	if err != nil {
		s.stats.badRequests.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	assignments := s.batch.submit(lm, qs)
	writeJSON(w, http.StatusOK, AssignResponse{Assignments: assignments, Generation: lm.gen})
	s.stats.observeRequest(assignments, time.Since(start))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	lm := s.cur.Load()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": lm.gen,
		"model":      lm.model.String(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req ReloadRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
			return
		}
	}
	gen, drained, err := s.Reload(req.Path)
	if err != nil {
		// 422: the request was well-formed but the named model was not —
		// the previous generation is still serving.
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{Generation: gen, Drained: drained, Model: s.Model().String()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
