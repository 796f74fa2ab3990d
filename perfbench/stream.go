package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/metrics"
	"github.com/rockclust/rock/internal/stream"
)

// streamShape sizes the stream-drift workload.
type streamShape struct {
	train     int // regime-0 baskets the starting model is frozen from
	regimes   int // regimes per episode, the model's own regime 0 included
	requests  int // POST /ingest requests per regime
	batch     int // baskets per request
	clients   int // closed-loop clients, one connection each
	probe     int // probe baskets per regime, scored for purity
	templates int // disjoint templates per regime
	width     int // items per template
	size      int // items per basket
}

// fullStream runs regimes of 312×64 = 19,968 points.
var fullStream = streamShape{train: 2000, regimes: 5, requests: 312, batch: 64, clients: 2, probe: 256, templates: 4, width: 12, size: 8}

// streamTheta is the starting model's θ; its K is the template count.
// Refreshes inherit both, as under rockserve -stream.
const streamTheta = 0.35

// modelSample is the sample the starting model is clustered from: with
// the default LabelFraction of 0.25 it still fills each cluster's
// labeled subset to the default cap of 50 points.
const modelSample = 800

// requestIDHeader carries a request's id, so its handler span can join
// its client span.
const requestIDHeader = "X-Request-Id"

// regimes generates the drifting stream. Regime r draws baskets from
// templates of its own, disjoint from every other regime's, so each
// basket of a new regime is an outlier to a model that has not seen it.
// The baskets of request q in regime r depend on (seed, r, q) alone, so
// every response can be replayed after the run.
type regimes struct {
	shape streamShape
	seed  int64
	names [][]string // names[r*templates+t] are the items of template t of regime r
}

func newRegimes(s streamShape, seed int64) *regimes {
	g := &regimes{shape: s, seed: seed}
	for r := 0; r < s.regimes; r++ {
		for t := 0; t < s.templates; t++ {
			items := make([]string, s.width)
			for j := range items {
				items[j] = fmt.Sprintf("r%dt%di%d", r, t, j)
			}
			g.names = append(g.names, items)
		}
	}
	return g
}

// baskets returns the n baskets of request q in regime r, each with the
// global template (r*templates+t) it was drawn from.
func (g *regimes) baskets(r, q, n int) ([][]string, []int) {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + int64(r)*100_003 + int64(q)))
	qs := make([][]string, n)
	tpl := make([]int, n)
	idx := make([]int, g.shape.width)
	for i := range qs {
		tpl[i] = r*g.shape.templates + rng.Intn(g.shape.templates)
		for j := range idx {
			idx[j] = j
		}
		b := make([]string, g.shape.size)
		for j := range b {
			k := j + rng.Intn(len(idx)-j)
			idx[j], idx[k] = idx[k], idx[j]
			b[j] = g.names[tpl[i]][idx[j]]
		}
		qs[i] = b
	}
	return qs, tpl
}

// modelBytes is the saved model the stream starts from: regime-0
// baskets as basket text, parsed, clustered, and frozen with their
// vocabulary. The clustering runs on a sample of modelSample baskets
// and labels the rest: the baskets are dense, and clustering all of them
// would cost several seconds per run before any measurement starts.
func modelBytes(g *regimes, seed int64) ([]byte, error) {
	qs, tpl := g.baskets(0, -1, g.shape.train)
	var text bytes.Buffer
	for i, q := range qs {
		fmt.Fprintf(&text, "t%d %s\n", tpl[i], strings.Join(q, " "))
	}
	d, err := dataset.ReadBasket(&text, dataset.BasketOptions{FirstTokenIsLabel: true})
	if err != nil {
		return nil, fmt.Errorf("parsing the training baskets: %w", err)
	}
	cfg := core.Config{Theta: streamTheta, K: g.shape.templates, SampleSize: modelSample, Seed: seed}
	res, err := core.Cluster(d.Trans, cfg)
	if err != nil {
		return nil, fmt.Errorf("clustering the starting model: %w", err)
	}
	m, err := core.FreezeDataset(d, res, cfg)
	if err != nil {
		return nil, fmt.Errorf("freezing the starting model: %w", err)
	}
	var b bytes.Buffer
	if err := m.Save(&b); err != nil {
		return nil, fmt.Errorf("saving the starting model: %w", err)
	}
	return b.Bytes(), nil
}

// server is one set-up of the streaming daemon, listening on loopback.
type server struct {
	st   *stream.Streamer
	http *http.Server
	url  string
	done chan error // Serve's return value

	mu   sync.Mutex
	gens map[uint64]*core.Model // every generation that served, from OnSwap
}

// startServer is the set-up a user waits for: load the saved model,
// build the streamer as rockserve -stream does (incremental refresh,
// every other setting at its default), and listen until a request is
// answered. A non-nil tracer also times every handler call.
func startServer(model []byte, tr *tracer, id int64) (*server, error) {
	root := tr.begin("stream.setup", id, -1)
	defer tr.end(root)
	s := &server{gens: map[uint64]*core.Model{}, done: make(chan error, 1)}
	sp := tr.begin("core.load_model", id, root)
	m, err := core.LoadModel(bytes.NewReader(model))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("loading the model: %w", err)
	}
	sp = tr.begin("stream.new", id, root)
	s.st, err = stream.New(m, stream.Config{Incremental: true, OnSwap: s.onSwap})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("starting the streamer: %w", err)
	}
	h := s.st.Handler()
	if tr != nil {
		h = timed(tr, h)
	}
	sp = tr.begin("serve.listen", id, root)
	defer tr.end(sp)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s.http = &http.Server{Handler: h}
	s.url = "http://" + ln.Addr().String()
	go func() { s.done <- s.http.Serve(ln) }()
	if err := s.ready(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *server) onSwap(gen uint64, m *core.Model) {
	s.mu.Lock()
	s.gens[gen] = m
	s.mu.Unlock()
}

// ready waits for one answered GET /healthz.
func (s *server) ready() error {
	hc := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(s.url + "/healthz")
	if err != nil {
		return fmt.Errorf("waiting for the listener: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("waiting for the listener: /healthz answered %d", resp.StatusCode)
	}
	return nil
}

// close stops the listener and its connections, waits for Serve to
// return, and joins any refresh still running.
func (s *server) close() error {
	err := s.http.Close()
	if serr := <-s.done; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.st.Quiesce()
	return err
}

// timed wraps the streamer's handler in a span for every request that
// carries a request id.
func timed(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		sp := tr.begin("stream.handler", id, -1)
		h.ServeHTTP(w, r)
		tr.end(sp)
	})
}

// call is one POST /ingest as its client saw it.
type call struct {
	id          int64
	regime, q   int
	probe       bool
	send, recv  time.Time
	gen         uint64
	assignments []int
	err         error
}

// ingest sends the baskets of c as one POST /ingest and records the
// answer. A transport error, a status other than 200 or an unreadable
// body is kept in c.err.
func ingest(hc *http.Client, url string, qs [][]string, c *call, tr *tracer, parent int) {
	body, err := json.Marshal(stream.IngestRequest{Queries: qs})
	if err != nil {
		c.err = err
		return
	}
	sp := tr.begin("client.ingest", c.id, parent)
	defer tr.end(sp)
	c.send = time.Now()
	defer func() { c.recv = time.Now() }()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(requestIDHeader, strconv.FormatInt(c.id, 10))
	}
	resp, err := hc.Do(req)
	if err != nil {
		c.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		c.err = fmt.Errorf("status %d", resp.StatusCode)
		return
	}
	var out stream.IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		c.err = fmt.Errorf("decoding the response: %w", err)
		return
	}
	io.Copy(io.Discard, resp.Body) // the trailing newline, so the connection is reused
	if len(out.Assignments) != len(qs) {
		c.err = fmt.Errorf("%d assignments for %d baskets", len(out.Assignments), len(qs))
		return
	}
	c.gen, c.assignments = out.Generation, out.Assignments
}

// episode is what one pass over the regime sequence, on a fresh set-up,
// measured.
type episode struct {
	setup      float64
	traffic    float64   // seconds from the first regime's start to the last one's end
	lat        []float64 // client round trip per regime request, ms
	points     int       // acknowledged regime points
	stale      []float64 // seconds, by regime; -1 where the regime change was not measured
	refresh    []float64 // Streamer.Stats LastRefreshSec per regime change
	swapPause  []float64 // ms, per regime change
	detect     int       // points from each regime's start to its refresh trigger, summed
	refreshPts int       // refresh input points, summed over regime changes
	fallbacks  int64
	readmitted int64
	meanBatch  float64
	coalesced  float64
	assignMs   []float64 // replay time per regime request
	purity     float64   // of the probes, against their generating templates
	probed     int       // probe points answered
}

// runEpisode sets the daemon up, drives every regime through it with a
// barrier between regimes, probes every regime after the last refresh,
// shuts it down, and replays every response through the model of the
// generation that answered it.
func runEpisode(g *regimes, model []byte, id int64, tr *tracer, rep *report) (*episode, error) {
	s := g.shape
	ep := &episode{}
	t0 := time.Now()
	srv, err := startServer(model, tr, id)
	if err != nil {
		return nil, err
	}
	ep.setup = time.Since(t0).Seconds()
	clients := make([]*http.Client, s.clients)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	url := srv.url + "/ingest"
	var mu sync.Mutex
	var calls []*call
	var nextID atomic.Int64
	newCall := func(r, q int, probe bool) *call {
		return &call{id: id<<32 | nextID.Add(1), regime: r, q: q, probe: probe}
	}

	epSpan := tr.begin("stream.episode", id, -1)
	start := time.Now()
	firstGen := make([]uint64, s.regimes) // the generation each regime's refresh produced
	for r := 0; r < s.regimes; r++ {
		before := srv.st.Stats()
		rs := tr.begin("stream.regime", int64(r), epSpan)
		var next atomic.Int64
		var wg sync.WaitGroup
		for _, hc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for q := int(next.Add(1) - 1); q < s.requests; q = int(next.Add(1) - 1) {
					qs, _ := g.baskets(r, q, s.batch)
					c := newCall(r, q, false)
					ingest(hc, url, qs, c, tr, rs)
					mu.Lock()
					calls = append(calls, c)
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		srv.st.Quiesce()
		after := srv.st.Stats()
		tr.end(rs)
		if r == 0 {
			continue
		}
		if rep.check(after.Refreshes > before.Refreshes, "episode %d: no refresh after the change to regime %d", id, r) {
			firstGen[r] = before.Generation + 1
			ep.detect += int(after.LastTriggerSeen - before.Seen)
			ep.refresh = append(ep.refresh, after.LastRefreshSec)
			ep.swapPause = append(ep.swapPause, after.LastSwapPauseSec*1e3)
			ep.refreshPts += after.LastRefreshPoints
		}
	}
	ep.traffic = time.Since(start).Seconds()
	tr.end(epSpan)

	var probe []int
	var probeTpl []string
	for r := 0; r < s.regimes; r++ {
		qs, tpl := g.baskets(r, -2, s.probe)
		c := newCall(r, -2, true)
		ingest(clients[0], url, qs, c, tr, -1)
		calls = append(calls, c)
		if c.err == nil {
			probe = append(probe, c.assignments...)
			for _, t := range tpl {
				probeTpl = append(probeTpl, strconv.Itoa(t))
			}
		}
	}
	ep.purity, ep.probed = metrics.Evaluate(probe, probeTpl).Accuracy, len(probe)
	srv.st.Quiesce()
	st, ss := srv.st.Stats(), srv.st.Server().Stats()
	rep.check(st.FailedRefreshes == 0, "episode %d: %d refreshes failed: %s", id, st.FailedRefreshes, st.LastRefreshError)
	rep.check(st.Outliers == st.RefreshedOutliers+st.ReadmittedOutliers+int64(st.PendingOutliers)+st.DroppedOutliers,
		"episode %d: outlier ledger leaks: %+v", id, st)
	ep.fallbacks, ep.readmitted = st.IncrementalFallbacks, st.ReadmittedOutliers
	ep.meanBatch = ss.MeanBatch
	if ss.Batches > 0 {
		ep.coalesced = float64(ss.CoalescedBatches) / float64(ss.Batches)
	}
	for _, hc := range clients {
		hc.CloseIdleConnections()
	}
	if err := srv.close(); err != nil {
		return nil, fmt.Errorf("shutting the daemon down: %w", err)
	}

	ep.stale = make([]float64, s.regimes)
	for r := 1; r < s.regimes; r++ {
		ep.stale[r] = -1
		if firstGen[r] == 0 {
			continue
		}
		var from, to time.Time
		for _, c := range calls {
			if !c.probe && c.regime == r && (from.IsZero() || c.send.Before(from)) {
				from = c.send
			}
			if c.err == nil && c.gen >= firstGen[r] && (to.IsZero() || c.recv.Before(to)) {
				to = c.recv
			}
		}
		if !from.IsZero() && !to.IsZero() {
			ep.stale[r] = to.Sub(from).Seconds()
		}
	}

	vocabs := map[uint64]*vocab{}
	for _, c := range calls {
		m := srv.gens[c.gen]
		if c.err != nil || m == nil {
			rep.check(false, "episode %d request %d: %v (generation %d)", id, c.id, c.err, c.gen)
			continue
		}
		if vocabs[c.gen] == nil {
			vocabs[c.gen] = newVocab(m)
		}
		n := s.batch
		if c.probe {
			n = s.probe
		}
		qs, _ := g.baskets(c.regime, c.q, n)
		ts := vocabs[c.gen].transactions(qs)
		sp := tr.begin("core.assign", c.id, -1)
		a0 := time.Now()
		got := m.AssignBatch(ts, 0)
		el := time.Since(a0)
		tr.end(sp)
		if !c.probe {
			ep.assignMs = append(ep.assignMs, el.Seconds()*1e3)
			ep.lat = append(ep.lat, c.recv.Sub(c.send).Seconds()*1e3)
			ep.points += len(c.assignments)
		}
		rep.check(slices.Equal(got, c.assignments), "episode %d request %d: the response differs from generation %d's Model.AssignBatch", id, c.id, c.gen)
	}
	return ep, nil
}

// vocab translates item names into one model's id space the way the
// streamer's interning does for that generation: a name the model froze
// keeps its id, and any other name gets a distinct id past the frozen
// vocabulary, which no labeled point holds.
type vocab struct {
	byName map[string]dataset.Item
	size   dataset.Item
}

func newVocab(m *core.Model) *vocab {
	items := m.Items()
	v := &vocab{byName: make(map[string]dataset.Item, len(items)), size: dataset.Item(len(items))}
	for id, name := range items {
		v.byName[name] = dataset.Item(id)
	}
	return v
}

func (v *vocab) transactions(qs [][]string) []dataset.Transaction {
	unknown := map[string]dataset.Item{}
	ts := make([]dataset.Transaction, len(qs))
	for i, q := range qs {
		items := make([]dataset.Item, len(q))
		for j, name := range q {
			id, ok := v.byName[name]
			if !ok {
				if id, ok = unknown[name]; !ok {
					id = v.size + dataset.Item(len(unknown))
					unknown[name] = id
				}
			}
			items[j] = id
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	return ts
}

// runStream measures stream-drift: episodes of the regime sequence, each
// on a fresh set-up, until the window is spent. Traced, episodes
// alternate between untraced and traced; the end-to-end figures come
// from the untraced ones and the spans from the traced ones.
func runStream(s streamShape, o runOpts) (*report, error) {
	g := newRegimes(s, o.seed)
	model, err := modelBytes(g, o.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var setups []float64
	for i := 0; i < minSetups; i++ {
		t0 := time.Now()
		srv, err := startServer(model, o.tr, int64(-1-i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := srv.close(); err != nil {
			return nil, fmt.Errorf("shutting the daemon down: %w", err)
		}
	}

	var plain, traced []*episode
	deadline := time.Now().Add(o.window)
	for i := int64(0); len(plain) == 0 || (o.tr != nil && len(traced) == 0) || time.Now().Before(deadline); i++ {
		tr := o.tr
		if i%2 == 0 {
			tr = nil
		}
		ep, err := runEpisode(g, model, i, tr, rep)
		if err != nil {
			return nil, err
		}
		setups = append(setups, ep.setup)
		if tr == nil {
			plain = append(plain, ep)
		} else {
			traced = append(traced, ep)
		}
	}

	// A stall of the shared host hits one episode, not the run, so the
	// tail and the throughput are taken per episode and their medians
	// reported. Cluster numbers differ between episodes, so purity is
	// scored per episode too. Staleness grows with the regime index, as
	// every refresh seeds from more clusters: a median over all regime
	// changes would fall between those levels, so each change gets its
	// median over the episodes and fresh_s is their mean.
	var lat, tails, rates, traffic, purity []float64
	byChange := make([][]float64, s.regimes)
	var probed, changes int
	for _, ep := range plain {
		lat = append(lat, ep.lat...)
		tails = append(tails, tail(ep.lat))
		rates = append(rates, float64(ep.points)/ep.traffic)
		for r, v := range ep.stale {
			if r > 0 && v >= 0 {
				byChange[r] = append(byChange[r], v)
				changes++
			}
		}
		traffic = append(traffic, ep.traffic)
		purity = append(purity, ep.purity)
		probed += ep.probed
	}
	var fresh float64
	for _, v := range byChange[1:] {
		fresh += median(v) / float64(s.regimes-1)
	}
	p50, p99, rate := median(lat), median(tails), median(rates)
	rep.set("setup_s", median(setups), "s", len(setups))
	rep.set("op_p50_ms", p50, "ms", len(lat))
	rep.set("op_tail_ms", p99, "ms", len(lat))
	rep.set("points_per_s", rate, "points/s", len(lat))
	rep.set("fresh_s", fresh, "s", changes)
	rep.set("purity", median(purity), "fraction", probed)
	rep.set("max_rss_mb", maxRSSMiB(), "MiB", 1)
	rep.set("ingest_p50_ms", p50, "ms", len(lat))
	rep.set("ingest_p99_ms", p99, "ms", len(lat))
	rep.set("ingest_pts_per_s", rate, "points/s", len(lat))
	rep.set("stale_s", fresh, "s", changes)

	if o.tr != nil {
		setStreamLayerMetrics(rep, o.tr, append(plain, traced...), traced, median(traffic))
	}
	return rep, nil
}

// setStreamLayerMetrics reports the per-layer metrics of stream-drift:
// span figures from the traced episodes, Streamer.Stats and Server.Stats
// figures as medians over every episode.
func setStreamLayerMetrics(rep *report, tr *tracer, all, traced []*episode, plainTraffic float64) {
	tr.link("stream.handler", "client.ingest")
	var assign, refresh, swap, detect, refreshPts, readmitted, meanBatch, coalesced, tracedTraffic []float64
	var fallbacks int64
	for _, ep := range all {
		assign = append(assign, ep.assignMs...)
		refresh = append(refresh, ep.refresh...)
		swap = append(swap, ep.swapPause...)
		detect = append(detect, float64(ep.detect))
		refreshPts = append(refreshPts, float64(ep.refreshPts))
		readmitted = append(readmitted, float64(ep.readmitted))
		meanBatch = append(meanBatch, ep.meanBatch)
		coalesced = append(coalesced, ep.coalesced)
		fallbacks += ep.fallbacks
	}
	for _, ep := range traced {
		tracedTraffic = append(tracedTraffic, ep.traffic)
	}
	loads := tr.durations("core.load_model")
	handler := tr.durations("stream.handler")
	for i := range handler {
		handler[i] *= 1e3
	}
	rep.set("core.load_model_s", median(loads), "s", len(loads))
	rep.set("core.assign_p50_ms", median(assign), "ms", len(assign))
	rep.set("core.assign_p99_ms", quantile(assign, 0.99), "ms", len(assign))
	rep.set("serve.mean_batch", median(meanBatch), "points", len(all))
	rep.set("serve.coalesced_ratio", median(coalesced), "fraction", len(all))
	rep.set("stream.handler_p50_ms", median(handler), "ms", len(handler))
	rep.set("stream.handler_p99_ms", quantile(handler, 0.99), "ms", len(handler))
	rep.set("stream.refresh_s", median(refresh), "s", len(refresh))
	rep.set("stream.refresh_points", median(refreshPts), "count", len(all))
	rep.set("stream.detect_points", median(detect), "count", len(all))
	rep.set("stream.fallbacks", float64(fallbacks), "count", len(all))
	rep.set("stream.swap_pause_ms", median(swap), "ms", len(swap))
	rep.set("stream.readmitted", median(readmitted), "count", len(all))
	rep.set("trace.overhead_s", median(tracedTraffic)-plainTraffic, "s", len(traced))
}
