// Package stream runs the paper's "cluster a sample, label the rest"
// loop forever: a long-lived Streamer admits arriving points against the
// currently frozen rock model (the labeling phase's θ-test, served
// through the coalescing batcher of internal/serve), parks the points the
// model cannot place in a bounded outlier buffer, and watches a windowed
// estimate of the outlier rate. When the rate crosses the refresh
// threshold — the frozen model no longer describes the arriving
// distribution — the streamer re-clusters a retained sample of admitted
// points together with the accumulated outliers in the background,
// freezes the result, and swaps it in atomically through the serving
// stack's generation-refcount machinery. Assignment traffic never stops:
// requests pinned to the retiring generation finish on it, new requests
// land on the refreshed model, and no request is ever dropped or answered
// by a generation it was not pinned to.
//
// The admission test is Squeezer-shaped (one pass, compare the arriving
// point against per-cluster summaries, admit or park), but the summary is
// ROCK's own labeling index, so admission is bit-identical to what the
// offline labeling phase would have decided. Drift detection is measured
// in points, not wall time: the EWMA over the last ~Window indicators is
// deterministic for a given point sequence, which is what lets the soak
// tests assert a bounded detection delay with no sleeps and no flakes.
//
// Item id discipline: the streamer owns the id space. A model frozen with
// a vocabulary seeds the streamer's name→id table; names never seen
// before are interned permanently (monotonically growing ids), so parked
// outliers, the retained sample, and every query live in ONE id space
// across generations — a refreshed model is frozen over that same space,
// which is what makes "cluster the outliers later" coherent. Models
// frozen from raw ids skip translation; callers must then send ids.
package stream

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/similarity"
	"github.com/rockclust/rock/internal/vclock"
)

// Config parameterizes a Streamer. The zero value works: every field has
// a default, and the refresh clustering parameters are inherited from the
// initial model.
type Config struct {
	// Cluster parameterizes the background re-cluster runs. Zero Theta,
	// K, and Measure inherit the initial model's frozen values; Workers
	// and sampling apply as in core.Cluster.
	// The measure must be (or default to) a built-in similarity — the
	// refreshed model has to freeze.
	Cluster core.Config
	// Serve parameterizes the embedded serving stack (batch size, flush
	// deadline, AssignBatch workers, drain timeout). Its Clock defaults
	// to Config.Clock.
	Serve serve.Config

	// RefreshThreshold is the outlier-rate level that triggers a
	// background refresh (default 0.5). A threshold above 1 disables the
	// detector — the rate estimate never exceeds 1.
	RefreshThreshold float64
	// Window is the effective width, in points, of the outlier-rate
	// EWMA (default 512).
	Window int
	// Warmup is how many points the estimator must absorb after a reset
	// before the detector may fire (default Window). Prevents the first
	// few arrivals from triggering a refresh off a seed estimate.
	Warmup int
	// MinRefreshOutliers is the fewest parked outliers a refresh needs
	// (default 32) — re-clustering a near-empty buffer cannot improve
	// the model.
	MinRefreshOutliers int
	// OutlierBuffer bounds the parked-outlier ring (default 4096). When
	// full, the oldest parked point is dropped and counted in
	// Stats.DroppedOutliers.
	OutlierBuffer int
	// RetainSample bounds the reservoir of admitted points retained as
	// re-clustering context (default 4096). The reservoir is a uniform
	// sample of everything admitted so far, seeded by Seed.
	RetainSample int
	// Incremental switches the background refresh to the seeded
	// re-cluster: the frozen model's labeled clusters seed the
	// agglomeration arena (core.ClusterSeeded) and only the parked
	// outliers enter as new points, so the refresh input is
	// reps+outliers instead of reservoir+outliers — typically an order
	// of magnitude smaller. When the seeded run rejects the refresh
	// config or fails, the refresh falls back to the full re-cluster in
	// the same attempt and counts Stats.IncrementalFallbacks. Default
	// false (full re-cluster over the retained sample).
	Incremental bool
	// Seed drives the retained-sample reservoir and the refresh runs'
	// randomized steps.
	Seed int64

	// Clock supplies all timing (nil = vclock.Real). Tests inject a
	// vclock.Fake so the batcher deadlines and refresh bookkeeping are
	// deterministic.
	Clock vclock.Clock
	// OnSwap, when set, is called once with the initial model at
	// generation 1, then after every refresh with the newly serving
	// generation and model — the hook the soak tests use to verify no
	// assignment was ever misattributed, and rockserve uses to log.
	OnSwap func(gen uint64, m *core.Model)
}

// withDefaults fills the zero fields (the Cluster inheritance needs the
// initial model and happens in New).
func (c Config) withDefaults() Config {
	if c.RefreshThreshold <= 0 {
		c.RefreshThreshold = 0.5
	}
	if c.Window <= 0 {
		c.Window = 512
	}
	if c.Warmup <= 0 {
		c.Warmup = c.Window
	}
	if c.MinRefreshOutliers <= 0 {
		c.MinRefreshOutliers = 32
	}
	if c.OutlierBuffer <= 0 {
		c.OutlierBuffer = 4096
	}
	if c.RetainSample <= 0 {
		c.RetainSample = 4096
	}
	if c.Clock == nil {
		c.Clock = vclock.Real()
	}
	if c.Serve.Clock == nil {
		c.Serve.Clock = c.Clock
	}
	return c
}

// IngestResult answers one Ingest call.
type IngestResult struct {
	// Assignments holds one cluster index per ingested point in input
	// order, -1 for points parked as outliers — exactly what the
	// answering generation's Model.AssignBatch computes.
	Assignments []int
	// Generation identifies the model generation that answered.
	Generation uint64
	// OutlierRate is the windowed outlier-rate estimate after this
	// batch.
	OutlierRate float64
	// Refreshing reports whether a background refresh was in flight
	// when the batch completed.
	Refreshing bool
}

// Stats snapshots the streaming loop for monitoring and the soak tests.
//
// The outlier ledger is loss-proof by construction: once no refresh is
// in flight, every parked point (Outliers) is in exactly one bucket —
// still in the ring (PendingOutliers), consumed by a completed refresh
// (RefreshedOutliers), re-admitted into a refreshed generation
// (ReadmittedOutliers), or evicted without ever reaching a model
// (DroppedOutliers):
//
//	Outliers == RefreshedOutliers + ReadmittedOutliers +
//	            PendingOutliers + DroppedOutliers
//
// The soak tests assert the identity at every quiesce point.
type Stats struct {
	Generation  uint64  `json:"generation"`
	Seen        int64   `json:"seen"`
	Assigned    int64   `json:"assigned"`
	Outliers    int64   `json:"outliers"`
	OutlierRate float64 `json:"outlier_rate"`

	PendingOutliers    int   `json:"pending_outliers"`
	DroppedOutliers    int64 `json:"dropped_outliers"`
	RefreshedOutliers  int64 `json:"refreshed_outliers"`
	ReadmittedOutliers int64 `json:"readmitted_outliers"`
	RetainedSample     int   `json:"retained_sample"`

	Refreshing             bool    `json:"refreshing"`
	PendingRefresh         bool    `json:"pending_refresh"`
	Refreshes              int64   `json:"refreshes"`
	FailedRefreshes        int64   `json:"failed_refreshes"`
	CoalescedTriggers      int64   `json:"coalesced_triggers"`
	IncrementalFallbacks   int64   `json:"incremental_fallbacks"`
	LastTriggerSeen        int64   `json:"last_trigger_seen"`
	LastRefreshPoints      int     `json:"last_refresh_points"`
	LastRefreshIncremental bool    `json:"last_refresh_incremental"`
	LastRefreshSec         float64 `json:"last_refresh_sec"`
	LastSwapPauseSec       float64 `json:"last_swap_pause_sec"`
	LastRefreshError       string  `json:"last_refresh_error,omitempty"`
}

// Streamer is the long-lived ingestion loop. Create one with New; Ingest,
// IngestNames, Stats, and Quiesce are safe for concurrent use.
type Streamer struct {
	cfg   Config
	srv   *serve.Server
	clock vclock.Clock

	mu              sync.Mutex
	names           []string                // streamer-owned vocabulary; nil = raw-id mode
	byName          map[string]dataset.Item // name → id over names
	est             *rateEWMA               // windowed outlier-rate estimate
	rng             *rand.Rand              // reservoir replacement draws
	outRing         []dataset.Transaction   // parked-outlier ring, len == OutlierBuffer
	outHead, outLen int
	reservoir       []dataset.Transaction // retained sample of admitted points
	resSeen         int64                 // admitted points offered to the reservoir

	seen, admitted, parked, dropped int64
	refreshed, readmitted           int64 // ring points consumed by refreshes / re-admitted after a swap
	refreshing                      bool
	refreshPending                  bool  // a trigger landed mid-refresh; run one follow-up
	dropsAtTrigger                  int64 // s.dropped when the in-flight refresh snapshotted the ring
	refreshWG                       sync.WaitGroup

	refreshes, failedRefreshes int64
	coalescedTriggers          int64
	incrementalFallbacks       int64
	lastTriggerSeen            int64
	lastRefreshPoints          int
	lastRefreshIncremental     bool
	lastRefreshSec             float64
	lastSwapPauseSec           float64
	lastRefreshErr             string

	// Test seams: when gateRefresh is non-nil, every refresh goroutine
	// signals refreshEntered (if non-nil) and then blocks until
	// gateRefresh is closed — how the retention tests hold a refresh
	// mid-flight while parking more points. Both must be set before the
	// first Ingest and never mutated afterwards.
	gateRefresh    chan struct{}
	refreshEntered chan struct{}
}

// New builds a Streamer serving the given initial model at generation 1.
// Refresh clustering parameters left zero in cfg.Cluster inherit the
// model's frozen θ, cluster count, and measure.
func New(m *core.Model, cfg Config) (*Streamer, error) {
	cfg = cfg.withDefaults()
	cc := &cfg.Cluster
	if cc.Theta == 0 {
		cc.Theta = m.Theta()
	}
	if cc.K == 0 {
		cc.K = m.K()
	}
	if cc.Measure == nil {
		cc.Measure = similarity.ByName(m.MeasureName())
	}
	// The refresh input is already a bounded subsample (reservoir +
	// outlier ring), and the drifted regime's points in it are few by
	// construction — subsampling AGAIN at labeling time would leave the
	// new clusters with one or two labeled points and gut admission
	// quality. Label with whole clusters unless the caller says otherwise;
	// MaxLabelPoints still caps the per-cluster cost.
	if cc.LabelFraction == 0 {
		cc.LabelFraction = 1
	}
	if err := cc.Validate(); err != nil {
		return nil, fmt.Errorf("stream: refresh config: %w", err)
	}
	if similarity.Name(cc.Measure) == "" {
		return nil, fmt.Errorf("stream: refresh measure must be a built-in similarity — the refreshed model has to freeze")
	}
	s := &Streamer{
		cfg:     cfg,
		srv:     serve.New(m, cfg.Serve),
		clock:   cfg.Clock,
		est:     newRateEWMA(cfg.Window),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		outRing: make([]dataset.Transaction, cfg.OutlierBuffer),
	}
	if items := m.Items(); items != nil {
		s.names = items
		s.byName = make(map[string]dataset.Item, len(items))
		for id, name := range items {
			s.byName[name] = dataset.Item(id)
		}
	}
	if cfg.OnSwap != nil {
		cfg.OnSwap(1, m)
	}
	return s, nil
}

// Server exposes the embedded serving stack: its Handler carries the
// /assign, /healthz, /stats, and /-/reload endpoints, and its Stats the
// batching counters. Swapping models through it directly is the
// streamer's job — use the refresh machinery, not Server.Swap.
func (s *Streamer) Server() *serve.Server { return s.srv }

// Generation returns the currently serving model generation.
func (s *Streamer) Generation() uint64 { return s.srv.Generation() }

// Ingest admits one batch of arriving points, already in the streamer's
// item id space. Every point is assigned through the coalescing batcher
// against one pinned model generation; points the θ-test cannot place are
// parked in the outlier buffer and move the drift estimate. Crossing the
// refresh threshold starts (at most one) background re-cluster; Ingest
// never blocks on it.
func (s *Streamer) Ingest(ts []dataset.Transaction) IngestResult {
	if len(ts) == 0 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return IngestResult{Assignments: []int{}, Generation: s.srv.Generation(), OutlierRate: s.est.value(), Refreshing: s.refreshing}
	}
	out, gen := s.srv.Submit(ts)

	s.mu.Lock()
	for i, ci := range out {
		s.seen++
		if ci < 0 {
			s.parked++
			s.est.observe(1)
			s.parkLocked(ts[i].Clone())
		} else {
			s.admitted++
			s.est.observe(0)
			s.retainLocked(ts[i])
		}
	}
	rate := s.est.value()
	if s.est.count() >= int64(s.cfg.Warmup) &&
		rate >= s.cfg.RefreshThreshold &&
		s.outLen >= s.cfg.MinRefreshOutliers {
		if !s.refreshing {
			s.triggerLocked()
		} else if !s.refreshPending {
			// A trigger landing mid-refresh queues exactly one follow-up:
			// the in-flight refresh cannot see the points parked after its
			// snapshot, so when it finishes (and the ring is still worth
			// re-clustering) one more refresh runs over them.
			s.refreshPending = true
			s.coalescedTriggers++
		}
	}
	refreshing := s.refreshing
	s.mu.Unlock()
	return IngestResult{Assignments: out, Generation: gen, OutlierRate: rate, Refreshing: refreshing}
}

// IngestNames is Ingest for points arriving as item names: names
// translate through the streamer's own vocabulary, and names never seen
// before are interned permanently so the id space stays stable across
// refreshes. Requires an initial model frozen with a vocabulary.
func (s *Streamer) IngestNames(queries [][]string) (IngestResult, error) {
	s.mu.Lock()
	if s.byName == nil {
		s.mu.Unlock()
		return IngestResult{}, fmt.Errorf("stream: model was frozen without a vocabulary; ingest ids instead of item names")
	}
	ts := make([]dataset.Transaction, len(queries))
	items := make([]dataset.Item, 0, 32)
	for i, q := range queries {
		items = items[:0]
		for _, name := range q {
			id, ok := s.byName[name]
			if !ok {
				id = dataset.Item(len(s.names))
				s.names = append(s.names, name)
				s.byName[name] = id
			}
			items = append(items, id)
		}
		ts[i] = dataset.NewTransaction(items...)
	}
	s.mu.Unlock()
	return s.Ingest(ts), nil
}

// Quiesce blocks until no background refresh is in flight — the hook the
// deterministic tests and graceful shutdown use to join the swap.
func (s *Streamer) Quiesce() { s.refreshWG.Wait() }

// Stats snapshots the streaming counters.
func (s *Streamer) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Generation:  s.srv.Generation(),
		Seen:        s.seen,
		Assigned:    s.admitted,
		Outliers:    s.parked,
		OutlierRate: s.est.value(),

		PendingOutliers:    s.outLen,
		DroppedOutliers:    s.dropped,
		RefreshedOutliers:  s.refreshed,
		ReadmittedOutliers: s.readmitted,
		RetainedSample:     len(s.reservoir),

		Refreshing:             s.refreshing,
		PendingRefresh:         s.refreshPending,
		Refreshes:              s.refreshes,
		FailedRefreshes:        s.failedRefreshes,
		CoalescedTriggers:      s.coalescedTriggers,
		IncrementalFallbacks:   s.incrementalFallbacks,
		LastTriggerSeen:        s.lastTriggerSeen,
		LastRefreshPoints:      s.lastRefreshPoints,
		LastRefreshIncremental: s.lastRefreshIncremental,
		LastRefreshSec:         s.lastRefreshSec,
		LastSwapPauseSec:       s.lastSwapPauseSec,
		LastRefreshError:       s.lastRefreshErr,
	}
}

// parkLocked appends one unplaceable point to the outlier ring, dropping
// the oldest parked point when the ring is full. Caller holds s.mu.
func (s *Streamer) parkLocked(t dataset.Transaction) {
	n := len(s.outRing)
	if s.outLen < n {
		s.outRing[(s.outHead+s.outLen)%n] = t
		s.outLen++
		return
	}
	s.outRing[s.outHead] = t
	s.outHead = (s.outHead + 1) % n
	s.dropped++
}

// retainLocked offers one admitted point to the retained-sample
// reservoir (classic reservoir sampling, seeded). Caller holds s.mu.
func (s *Streamer) retainLocked(t dataset.Transaction) {
	s.resSeen++
	if len(s.reservoir) < s.cfg.RetainSample {
		s.reservoir = append(s.reservoir, t.Clone())
		return
	}
	if j := s.rng.Int63n(s.resSeen); j < int64(s.cfg.RetainSample) {
		s.reservoir[j] = t.Clone()
	}
}

// refreshInput is the snapshot a refresh runs over: the retained sample
// and the parked outliers at trigger time, the vocabulary as of then,
// the generation being refreshed (its labeled clusters seed the
// incremental path), and cutLen — how many ring entries the snapshot
// consumed, so the swap clears exactly that prefix and nothing parked
// after it.
type refreshInput struct {
	reservoir []dataset.Transaction
	outliers  []dataset.Transaction // the ring's first cutLen entries, oldest first
	names     []string
	model     *core.Model
	cutLen    int
}

// triggerLocked starts the background refresh: record the trigger point
// and the drop count (the drop-reversal accounting in
// settleRingLocked needs it), snapshot the input, and launch the
// goroutine. Caller holds s.mu; s.refreshing must be false.
func (s *Streamer) triggerLocked() {
	s.refreshing = true
	s.refreshPending = false
	s.lastTriggerSeen = s.seen
	s.dropsAtTrigger = s.dropped
	in := s.refreshInputLocked()
	s.refreshWG.Add(1)
	go s.refresh(in)
}

// refreshInputLocked snapshots the re-cluster input. Transactions are
// immutable, so sharing them with the background run is safe — later
// ingests replace ring slots, never mutate contents. Caller holds s.mu.
func (s *Streamer) refreshInputLocked() refreshInput {
	in := refreshInput{
		reservoir: append([]dataset.Transaction(nil), s.reservoir...),
		outliers:  make([]dataset.Transaction, 0, s.outLen),
		model:     s.srv.Model(),
		cutLen:    s.outLen,
	}
	for i := 0; i < s.outLen; i++ {
		in.outliers = append(in.outliers, s.outRing[(s.outHead+i)%len(s.outRing)])
	}
	if s.names != nil {
		in.names = append([]string(nil), s.names...)
	}
	return in
}

// refresh is the background re-cluster → freeze → swap arc. It runs on
// its own goroutine; ingestion keeps answering from the old generation
// until the swap, and the swap itself completes every request pinned to
// the retiring generation before the drain is reported. On success the
// snapshotted ring prefix clears (those points are in the new model),
// the points parked during the refresh window re-admit through the new
// generation's θ-test (re-parked when they still fail), and the drift
// estimator resets, re-arming the detector over a fresh warmup window.
// A failed re-cluster leaves the old model serving, records the attempt
// in the ledger (duration, size, error string), and resets the
// estimator as a cooldown so the detector cannot hot-loop; a queued
// follow-up is absorbed by the cooldown too.
func (s *Streamer) refresh(in refreshInput) {
	defer s.refreshWG.Done()
	if s.gateRefresh != nil {
		if s.refreshEntered != nil {
			s.refreshEntered <- struct{}{}
		}
		<-s.gateRefresh
	}
	start := s.clock.Now()

	m, incremental, npts, err := s.recluster(in)
	if err != nil {
		s.mu.Lock()
		s.failedRefreshes++
		s.lastRefreshPoints = npts
		s.lastRefreshIncremental = incremental
		s.lastRefreshSec = s.clock.Now().Sub(start).Seconds()
		s.lastRefreshErr = err.Error()
		s.est.reset()
		s.refreshPending = false
		s.refreshing = false
		s.mu.Unlock()
		return
	}

	swapStart := s.clock.Now()
	gen, _ := s.srv.Swap(m)
	pause := s.clock.Now().Sub(swapStart)
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(gen, m)
	}

	s.mu.Lock()
	s.refreshes++
	s.lastRefreshPoints = npts
	s.lastRefreshIncremental = incremental
	s.lastRefreshSec = s.clock.Now().Sub(start).Seconds()
	s.lastSwapPauseSec = pause.Seconds()
	s.lastRefreshErr = ""
	survivors := s.settleRingLocked(in.cutLen)
	s.est.reset()
	s.readmitLocked(survivors)
	s.finishRefreshLocked()
	s.mu.Unlock()
}

// recluster builds the refreshed model from the snapshot: the seeded
// incremental path when configured (old generation's labeled clusters +
// the snapshotted outliers), falling back to the full re-cluster over
// reservoir+outliers when the seeded run rejects the config or fails.
// Called without s.mu held.
func (s *Streamer) recluster(in refreshInput) (m *core.Model, incremental bool, npts int, err error) {
	if s.cfg.Incremental {
		reps, groups := in.model.LabeledGroups()
		pts := append(reps, in.outliers...)
		npts = len(pts)
		m, err = seededFreeze(pts, groups, in.names, s.cfg.Cluster)
		if err == nil {
			return m, true, npts, nil
		}
		s.mu.Lock()
		s.incrementalFallbacks++
		s.lastRefreshErr = err.Error() // overwritten by the fallback's outcome
		s.mu.Unlock()
	}
	sample := make([]dataset.Transaction, 0, len(in.reservoir)+len(in.outliers))
	sample = append(sample, in.reservoir...)
	sample = append(sample, in.outliers...)
	npts = len(sample)
	m, err = reclusterFreeze(sample, in.names, s.cfg.Cluster)
	return m, false, npts, err
}

// settleRingLocked reconciles the outlier ring after a successful swap.
// The snapshotted prefix (cutLen entries at trigger time) entered the
// refreshed model: clear whatever of it is still in the ring, and
// reverse the drop counts of snapshotted entries the ring evicted
// mid-refresh — drop-oldest evicts the snapshot first, and those points
// were NOT lost, they are in the new model. Everything else in the ring
// was parked during the refresh window against the old generation; it
// is extracted and returned for re-admission. The ring is empty on
// return. Caller holds s.mu.
func (s *Streamer) settleRingLocked(cutLen int) []dataset.Transaction {
	s.refreshed += int64(cutLen)
	rescued := s.dropped - s.dropsAtTrigger // mid-refresh evictions, oldest-first = snapshot-first
	if rescued > int64(cutLen) {
		rescued = int64(cutLen)
	}
	s.dropped -= rescued
	n := len(s.outRing)
	for remain := cutLen - int(rescued); remain > 0; remain-- {
		s.outRing[s.outHead] = nil
		s.outHead = (s.outHead + 1) % n
		s.outLen--
	}
	survivors := make([]dataset.Transaction, 0, s.outLen)
	for i := 0; i < s.outLen; i++ {
		j := (s.outHead + i) % n
		survivors = append(survivors, s.outRing[j])
		s.outRing[j] = nil
	}
	s.outHead, s.outLen = 0, 0
	return survivors
}

// readmitLocked runs the refresh-window survivors through the new
// generation's θ-test: points the refreshed model places are admitted
// (and offered to the reservoir), the rest re-park. The assignment goes
// through the serve stack's direct path, not the coalescing batcher — a
// partial batch would strand against a test-controlled clock, and there
// is no concurrent traffic to amortize with. Survivors re-entering the
// ring do not re-count in Stats.Outliers (each parked point counts
// once); the drift estimator is not fed either — it just reset, and
// these are not new arrivals. Caller holds s.mu.
func (s *Streamer) readmitLocked(survivors []dataset.Transaction) {
	if len(survivors) == 0 {
		return
	}
	out, _ := s.srv.SubmitDirect(survivors)
	for i, ci := range out {
		if ci >= 0 {
			s.readmitted++
			s.retainLocked(survivors[i])
		} else {
			s.parkLocked(survivors[i])
		}
	}
}

// finishRefreshLocked closes out a successful refresh: when a trigger
// landed mid-refresh and the re-parked remainder still clears the
// refresh floor, the queued follow-up starts immediately (the points it
// needs are already in the ring; waiting for the estimator to re-warm
// would just delay it); otherwise the streamer returns to steady state.
// Caller holds s.mu.
func (s *Streamer) finishRefreshLocked() {
	if s.refreshPending && s.outLen >= s.cfg.MinRefreshOutliers {
		s.triggerLocked()
		return
	}
	s.refreshPending = false
	s.refreshing = false
}

// reclusterFreeze runs the offline pipeline over the refresh input and
// freezes the result, attaching the streamer's vocabulary snapshot when
// it owns one (so the serving stack's name-translating /assign keeps
// working across refreshes).
func reclusterFreeze(sample []dataset.Transaction, names []string, cfg core.Config) (*core.Model, error) {
	res, err := core.Cluster(sample, cfg)
	if err != nil {
		return nil, fmt.Errorf("stream: refresh clustering: %w", err)
	}
	return freezeRefreshed(sample, names, res, cfg)
}

// seededFreeze is reclusterFreeze on the incremental path: the input is
// the old model's labeled points (grouped by groups) followed by the
// snapshotted outliers, clustered by core.ClusterSeeded.
func seededFreeze(pts []dataset.Transaction, groups [][]int, names []string, cfg core.Config) (*core.Model, error) {
	res, err := core.ClusterSeeded(pts, groups, cfg)
	if err != nil {
		return nil, fmt.Errorf("stream: incremental refresh clustering: %w", err)
	}
	return freezeRefreshed(pts, names, res, cfg)
}

// freezeRefreshed freezes a refresh run's result, over the vocabulary
// snapshot when the streamer owns one.
func freezeRefreshed(sample []dataset.Transaction, names []string, res *core.Result, cfg core.Config) (*core.Model, error) {
	if names != nil {
		v := dataset.NewVocabulary()
		for _, n := range names {
			v.Intern(n)
		}
		m, err := core.FreezeDataset(&dataset.Dataset{Vocab: v, Trans: sample}, res, cfg)
		if err != nil {
			return nil, fmt.Errorf("stream: freezing refreshed model: %w", err)
		}
		return m, nil
	}
	m, err := core.Freeze(sample, res, cfg)
	if err != nil {
		return nil, fmt.Errorf("stream: freezing refreshed model: %w", err)
	}
	return m, nil
}
