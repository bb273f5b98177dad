// Package core implements the MiddleWhere Location Service (§4): the
// single source of location information for location-sensitive
// applications. It fuses data from multiple sensors and resolves
// conflicts (§4.1), answers object-based and region-based queries
// (§4.2), accepts subscriptions for location-based conditions and
// notifies applications when they become true (§4.3), classifies the
// probability space into bands (§4.4), resolves symbolic regions with
// privacy granularity limits (§4.5), and derives spatial relationships
// between objects and regions (§4.6).
package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rcc"
	"middlewhere/internal/rules"
	"middlewhere/internal/spatialdb"
	"middlewhere/internal/topo"
)

// Location is the consolidated answer to "where is object X?": the
// inferred rectangle in the universe frame, its probability and band,
// and the symbolic region it falls in.
type Location struct {
	// Object is the located mobile object's ID.
	Object string
	// Rect is the inferred location MBR in the universe frame.
	Rect geom.Rect
	// Prob is the probability the object is within Rect.
	Prob float64
	// Band classifies Prob against the deployed sensors (§4.4).
	Band fusion.Band
	// Symbolic is the deepest symbolic region containing the estimate
	// (possibly truncated by a privacy policy).
	Symbolic glob.GLOB
	// Coordinate is the estimate's rectangle as a coordinate GLOB in
	// the universe frame.
	Coordinate glob.GLOB
	// Support and Discarded list the sensor readings used and rejected
	// by conflict resolution.
	Support, Discarded []string
	// At is the query evaluation time.
	At time.Time
}

// Notification is delivered to subscribers when their location
// condition becomes true (§4.3).
type Notification struct {
	// SubscriptionID identifies the subscription.
	SubscriptionID string
	// Object is the mobile object that satisfied the condition.
	Object string
	// Region is the subscription's region in the universe frame.
	Region geom.Rect
	// Prob is the fused probability that the object is in Region.
	Prob float64
	// Band classifies Prob.
	Band fusion.Band
	// At is when the triggering reading was evaluated.
	At time.Time
	// Trace is the obs trace ID of the reading that provoked this
	// notification (empty when tracing is disabled), so a remote
	// subscriber can attribute the push to its cause.
	Trace string
}

// Subscription configures a region-based notification (§4.3).
type Subscription struct {
	// Object restricts the subscription to one mobile object; empty
	// watches everyone.
	Object string
	// Region is the region of interest: a symbolic or coordinate GLOB.
	Region glob.GLOB
	// MinProb is the probability threshold; the subscriber is notified
	// when P(object in region) exceeds it. Zero means any positive
	// probability — and fused mass is positive everywhere (a fix far
	// down the corridor still leaves a room ~0.2 %), so with MinProb 0
	// and no MinBand the condition holds wherever the object has live
	// readings: an entry-only subscription sees no exit while they
	// last, and does not notify again until they all lapse.
	MinProb float64
	// MinBand, when non-zero, additionally requires the probability to
	// reach the given band.
	MinBand fusion.Band
	// EveryReading requests a notification for every qualifying
	// reading. The default notifies only on entry — when the condition
	// transitions from false to true for an object.
	EveryReading bool
	// Handler receives notifications on the service's notifier
	// goroutine. It must not block for long.
	Handler func(Notification)
}

// PrivacyPolicy limits the granularity at which an object's location
// may be revealed (§4.5).
type PrivacyPolicy struct {
	// MaxGranularity is the deepest reveal allowed (e.g. GranRoom).
	MaxGranularity glob.Granularity
	// HideCoordinates suppresses the coordinate GLOB entirely.
	HideCoordinates bool
}

// Service is the Location Service. Create with New and Close when
// done.
type Service struct {
	db    *spatialdb.DB
	graph *topo.Graph
	bld   *building.Building
	now   func() time.Time

	mu       sync.Mutex
	subs     map[string]*subscription
	lastTrue map[string]map[string]bool // subID -> objects the condition holds for
	// held is lastTrue indexed the other way: object ->
	// the subscriptions whose condition currently holds for it, so the
	// exit recheck of a stored reading visits only those. State changes
	// go through setHeld and dropSub, which keep the two in step.
	held map[string][]*subscription
	// heldOf looks an object's held subscriptions up (caller holds mu).
	// New sets it to read held, so an exit check costs what the object
	// holds (typically none to two), not the subscription table; the
	// oracle test swaps in a scan of every subscription.
	heldOf func(obj string) []*subscription
	seq    int

	// privMu guards the read-mostly disclosure tables separately from
	// the subscription state: applyPrivacy sits on the locate hot path
	// and must not contend with trigger bookkeeping.
	privMu  sync.RWMutex
	privacy map[string]PrivacyPolicy // object -> policy
	acls    map[string]AccessPolicy  // object -> per-requester policy

	// cache holds per-object fused-location state invalidated by
	// reading epochs; sensors memoizes the spec table + classifier;
	// quantum bounds cached staleness on a live clock.
	cache   locateCache
	sensors sensorMemo
	quantum time.Duration

	// pool fans the region scans (ObjectsInRegion, OccupancyHeatmap)
	// across candidates; nil when parallelism is 1.
	parallelism int
	pool        *workerPool

	// notifyQ is the one FIFO notification queue, drained by the one
	// notifier goroutine, so notifications are delivered in the order
	// they were evaluated, across every subscription.
	notifyQ chan dispatch
	stop    chan struct{}
	// qmu orders enqueues against the notifier's final drain: an
	// enqueue holds it for reading and sends only while qclosed is
	// false; after stop closes, the notifier takes it for writing (so
	// every enqueue in flight has finished) and sets qclosed before it
	// drains. Every notification counted as notified is thus delivered,
	// and every one refused is counted as dropped.
	qmu     sync.RWMutex
	qclosed bool
	// drained closes when the notifier has drained the queue and exited.
	drained chan struct{}

	// started anchors Health's uptime.
	started time.Time
	// ingested and notified count readings accepted and notifications
	// dispatched since start (heartbeat counters for Health).
	ingested, notified atomic.Uint64

	// history is non-nil when WithHistory is enabled.
	history *historyRecorder

	// routerMu guards the federation ingest router. When one is
	// installed (federated daemons only), IngestBatch consults it to
	// forward readings owned by peer daemons before storing the rest
	// locally.
	routerMu     sync.RWMutex
	ingestRouter IngestRouter
}

// IngestRouter partitions an ingest batch for federation: it forwards
// readings whose floor shard is placed on a peer daemon and returns
// the indices (into the submitted slice, ascending) of the readings to
// store locally. An implementation must not lose readings: anything it
// cannot forward (peer down, no lease) it keeps local by including the
// index. The returned error reports forwarding trouble that did not
// lose data (the affected readings are in localIdx).
type IngestRouter interface {
	RouteReadings(rs []model.Reading) (localIdx []int, err error)
}

// SetIngestRouter installs (or, with nil, removes) the federation
// ingest router.
func (s *Service) SetIngestRouter(r IngestRouter) {
	s.routerMu.Lock()
	s.ingestRouter = r
	s.routerMu.Unlock()
}

func (s *Service) currentRouter() IngestRouter {
	s.routerMu.RLock()
	r := s.ingestRouter
	s.routerMu.RUnlock()
	return r
}

type subscription struct {
	id     string
	spec   Subscription
	region geom.Rect
}

type dispatch struct {
	fn func(Notification)
	n  Notification
	// enq anchors the notify stage: queue wait plus handler execution
	// both count against delivery, not trigger evaluation.
	enq time.Time
	// barrier, when non-nil, makes this a Quiesce marker instead of a
	// notification: the worker acknowledges on it and delivers nothing.
	barrier chan<- struct{}
}

// Option configures the service.
type Option interface{ apply(*Service) }

type clockOption struct{ now func() time.Time }

func (o clockOption) apply(s *Service) { s.now = o.now }

// WithClock injects a clock; tests use it to control temporal
// degradation and TTLs deterministically.
func WithClock(now func() time.Time) Option { return clockOption{now: now} }

type parallelismOption struct{ n int }

func (o parallelismOption) apply(s *Service) { s.parallelism = o.n }

// WithParallelism sets the worker-pool size used to fan the region
// scans (ObjectsInRegion, OccupancyHeatmap) across candidate objects.
// Zero (the default) sizes the pool to GOMAXPROCS; 1 disables the pool
// and scans serially. Stored readings are always evaluated serially,
// in reading order.
func WithParallelism(n int) Option { return parallelismOption{n} }

type quantumOption struct{ d time.Duration }

func (o quantumOption) apply(s *Service) { s.quantum = o.d }

// WithCacheQuantum sets how long a cached fused location may be served
// on a live clock before temporal degradation forces a recompute.
// Epoch invalidation on new readings is exact regardless; the quantum
// only bounds time-decay staleness. Zero restricts cache hits to
// queries at the exact cached instant (useful under a fixed test
// clock).
func WithCacheQuantum(d time.Duration) Option { return quantumOption{d} }

// Sentinel errors.
var (
	ErrUnknownObject = errors.New("core: no readings for object")
	ErrClosed        = errors.New("core: service closed")
	ErrBadSub        = errors.New("core: bad subscription")
)

// New builds a Location Service over a building model: it creates the
// spatial database, loads the floor objects, and builds the topology
// graph.
func New(b *building.Building, opts ...Option) (*Service, error) {
	db, err := b.NewDB()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	graph, err := b.Graph()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := &Service{
		db:       db,
		graph:    graph,
		bld:      b,
		now:      time.Now,
		subs:     make(map[string]*subscription),
		lastTrue: make(map[string]map[string]bool),
		held:     make(map[string][]*subscription),
		privacy:  make(map[string]PrivacyPolicy),
		acls:     make(map[string]AccessPolicy),
		cache:    locateCache{entries: make(map[string]*locEntry)},
		quantum:  defaultCacheQuantum,
		notifyQ:  make(chan dispatch, notifyQueueCap),
		stop:     make(chan struct{}),
		drained:  make(chan struct{}),
	}
	s.heldOf = func(obj string) []*subscription { return s.held[obj] }
	for _, o := range opts {
		o.apply(s)
	}
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	if s.parallelism > 1 {
		s.pool = newWorkerPool(s.parallelism)
	}
	go s.notifier()
	s.started = s.now()
	return s, nil
}

// qualifies reports whether probability p, classified as band, meets
// the subscription's condition.
func (sub *subscription) qualifies(p float64, band fusion.Band) bool {
	return p > 0 && p >= sub.spec.MinProb && (sub.spec.MinBand == 0 || band >= sub.spec.MinBand)
}

// setHeld records sub's condition state for obj — lastTrue keeps only
// the true entries — and keeps the held index in step with it. It
// returns the previous state; ok is false (and nothing is recorded)
// when the subscription is gone. Caller holds s.mu.
func (s *Service) setHeld(sub *subscription, obj string, holds bool) (was, ok bool) {
	state, ok := s.lastTrue[sub.id]
	if !ok {
		return false, false
	}
	was = state[obj]
	switch {
	case holds && !was:
		state[obj] = true
		s.held[obj] = append(s.held[obj], sub)
	case was && !holds:
		delete(state, obj)
		s.unhold(obj, sub)
	}
	return was, true
}

// unhold removes sub from obj's held list, keeping the order of the
// rest. Caller holds s.mu.
func (s *Service) unhold(obj string, sub *subscription) {
	hs := s.held[obj]
	switch i := slices.Index(hs, sub); {
	case i < 0:
	case len(hs) == 1:
		delete(s.held, obj)
	default:
		s.held[obj] = slices.Delete(hs, i, i+1)
	}
}

// dropSub forgets a subscription and every held entry that names it,
// reporting whether it existed. Caller holds s.mu.
func (s *Service) dropSub(id string) bool {
	sub, ok := s.subs[id]
	if !ok {
		return false
	}
	for obj := range s.lastTrue[id] {
		s.unhold(obj, sub)
	}
	delete(s.subs, id)
	delete(s.lastTrue, id)
	return true
}

// notifyQueueCap is the notification queue's buffer: the dispatches
// a slow handler can fall behind by before evaluation blocks.
const notifyQueueCap = 1024

// Core metrics, cached once so the trigger/notify paths are pure
// atomics.
var (
	mIngested     = obs.Default().Counter("core_ingested_total")
	mTriggerEvals = obs.Default().Counter("core_trigger_evals_total")
	mTriggerUs    = obs.Default().Histogram("core_trigger_eval_us")
	mNotified     = obs.Default().Counter("core_notifications_total")
	mNotifyUs     = obs.Default().Histogram("core_notify_us")
	mQueueDepth   = obs.Default().Gauge("core_notify_queue_depth")
	mNotifyDrops  = obs.Default().Counter("core_notify_drops_total")
)

// deliver runs one queued notification handler, accounting queue wait
// plus handler time to the notify stage.
func (s *Service) deliver(d dispatch) {
	if d.barrier != nil {
		d.barrier <- struct{}{}
		return
	}
	d.fn(d.n)
	mNotifyUs.Observe(float64(time.Since(d.enq).Microseconds()))
	obs.SpanSince(d.n.Trace, "notify", d.enq)
	mQueueDepth.Set(float64(len(s.notifyQ)))
}

// enqueue hands one notification to the notifier. Once the service is
// shutting down it may be dropped instead, and is then counted as
// dropped; one that is queued is always delivered (see qmu).
func (s *Service) enqueue(d dispatch) {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if !s.qclosed {
		select {
		case s.notifyQ <- d:
			s.notified.Add(1)
			mNotified.Inc()
			mQueueDepth.Set(float64(len(s.notifyQ)))
			return
		case <-s.stop:
		}
	}
	mNotifyDrops.Inc()
}

// notifier delivers the queued notifications off the insert path,
// strictly in enqueue order.
func (s *Service) notifier() {
	defer close(s.drained)
	for {
		select {
		case d := <-s.notifyQ:
			s.deliver(d)
		case <-s.stop:
			// Wait out the enqueues in flight and refuse new ones, then
			// drain everything queued and exit.
			s.qmu.Lock()
			s.qclosed = true
			s.qmu.Unlock()
			for {
				select {
				case d := <-s.notifyQ:
					s.deliver(d)
				default:
					return
				}
			}
		}
	}
}

// Close stops the notifier and waits for it to drain the queue and
// exit.
func (s *Service) Close() {
	s.mu.Lock()
	select {
	case <-s.stop:
		s.mu.Unlock()
		return
	default:
		close(s.stop)
	}
	s.mu.Unlock()
	<-s.drained
	if s.pool != nil {
		s.pool.close()
	}
}

// Quiesce returns once every notification enqueued before the call has
// been delivered to its handler. The queue is FIFO, so a marker sent
// down it is acknowledged only after everything ahead of it ran. After
// Close it returns as soon as the notifier has drained and exited. It
// must not be called from a handler.
func (s *Service) Quiesce() {
	ack := make(chan struct{}, 1) // the notifier never blocks on it
	select {
	case s.notifyQ <- dispatch{barrier: ack}:
	case <-s.stop:
		<-s.drained
		return
	}
	select {
	case <-ack:
	case <-s.drained:
		// Closed under us: the notifier delivered what was queued and is
		// gone, so an unacknowledged marker never will be.
	}
}

// DB exposes the underlying spatial database (adapters force-expire
// readings through it; applications may run object queries). Readings
// go in through Ingest or IngestBatch: a reading inserted on the
// database directly reaches no subscription and no history.
func (s *Service) DB() *spatialdb.DB { return s.db }

// Graph exposes the building topology graph.
func (s *Service) Graph() *topo.Graph { return s.graph }

// Universe returns the universe rectangle.
func (s *Service) Universe() geom.Rect { return s.db.Universe() }

// RegisterSensor records a sensor instance and its calibration.
func (s *Service) RegisterSensor(sensorID string, spec model.SensorSpec) error {
	return s.db.RegisterSensor(sensorID, spec)
}

// Ingest stores a sensor reading; database triggers fire and matching
// subscriptions are evaluated. It is IngestBatch with a batch of one.
func (s *Service) Ingest(r model.Reading) error {
	return s.IngestBatch([]model.Reading{r})
}

// Batch-ingest metrics.
var (
	mBatchIngests = obs.Default().Counter("core_batch_ingests_total")
	mBatchSize    = obs.Default().Histogram("core_batch_size")
	mForwarded    = obs.Default().Counter("core_forwarded_readings_total")
)

// IngestBatch stores a slice of readings in one database pass,
// amortizing lock acquisition across the batch, and evaluates the
// resulting triggers in reading order.
// Readings that fail validation are skipped and reported in the
// returned *spatialdb.RejectedError (indices are positions in rs); the
// rest are stored, so callers must not re-submit the whole slice on
// that error. On a federated daemon, readings for floors placed on
// peer daemons are routed there.
func (s *Service) IngestBatch(rs []model.Reading) error { return s.ingest(rs, true) }

// IngestBatchLocal stores a batch strictly on this daemon, bypassing
// the federation router. The federation layer serves forwarded batches
// through it — a forwarded reading must not be re-routed even when the
// placement maps briefly disagree, or two daemons could bounce it
// forever.
func (s *Service) IngestBatchLocal(rs []model.Reading) error { return s.ingest(rs, false) }

// ingest is the one ingest body: it stamps traces, then stores the
// batch, routing it through the federation router first when routed is
// set and a router is installed.
func (s *Service) ingest(rs []model.Reading, routed bool) error {
	if len(rs) == 0 {
		return nil
	}
	if obs.Enabled() {
		// Local ingest begins the trace here; readings arriving over
		// mwrpc carry the ID their client stamped. Stamp a copy; the
		// caller's slice stays untouched.
		stamped := make([]model.Reading, len(rs))
		copy(stamped, rs)
		for i := range stamped {
			if stamped[i].Trace == "" {
				stamped[i].Trace = obs.BeginTrace()
			}
		}
		rs = stamped
	}
	var router IngestRouter
	if routed {
		router = s.currentRouter()
	}
	if router == nil {
		return s.ingestStamped(rs)
	}
	localIdx, routeErr := router.RouteReadings(rs)
	if len(localIdx) == len(rs) {
		// Everything stayed local (single-daemon placement, or the
		// router fell back for every reading).
		if err := s.ingestStamped(rs); err != nil {
			return err
		}
		return routeErr
	}
	mForwarded.Add(uint64(len(rs) - len(localIdx)))
	if len(localIdx) == 0 {
		return routeErr
	}
	local := make([]model.Reading, 0, len(localIdx))
	for _, i := range localIdx {
		local = append(local, rs[i])
	}
	err := s.ingestStamped(local)
	// Rejected indices refer to the local subset; remap them to the
	// caller's positions so at-least-once retry logic stays exact.
	var rej *spatialdb.RejectedError
	if errors.As(err, &rej) {
		for k, li := range rej.Indices {
			rej.Indices[k] = localIdx[li]
		}
	}
	if err != nil {
		return err
	}
	return routeErr
}

// ingestStamped is the shared storage tail of the ingest paths: one
// database pass, counters, and batch metrics. Traces are already
// stamped.
func (s *Service) ingestStamped(rs []model.Reading) error {
	n, err := s.db.InsertReadings(rs, s.dispatchStored)
	s.ingested.Add(uint64(n))
	mIngested.Add(uint64(n))
	mBatchIngests.Inc()
	mBatchSize.Observe(float64(len(rs)))
	return err
}

// classifier returns the §4.4 probability classifier for the
// registered sensors, memoized against the sensor-table generation.
func (s *Service) classifier() fusion.Classifier {
	_, cls := s.sensorView()
	return cls
}

// fusionReadings converts the object's live readings into fusion
// inputs: p_i is the spec's detection probability net of temporal
// degradation, and q_i is the spec's false-report probability scaled
// by area(A)/area(U) — a spurious report is uniformly distributed over
// the coverage area, so the likelihood of it landing on the reading's
// specific rectangle shrinks with that rectangle (the same scaling the
// paper applies to z in §6: z = z0·area(A)/area(U)).
func (s *Service) fusionReadings(objectID string, now time.Time) []fusion.Reading {
	rows := s.db.LatestPerSensor(objectID, now)
	specs, _ := s.sensorView()
	return fusion.FromReadings(rows, specs, now, s.db.Universe().Area())
}

// LocateObject answers the object-based query "where is X?" (§4.2):
// it fuses the live readings, resolves conflicts, classifies the
// probability, resolves the symbolic region, and applies any privacy
// policy registered for the object.
func (s *Service) LocateObject(objectID string) (Location, error) {
	readings, entry := s.fusionState(objectID, s.now())
	if len(readings) == 0 {
		return Location{}, fmt.Errorf("%w: %s", ErrUnknownObject, objectID)
	}
	loc, err := s.locate(objectID, entry)
	if err != nil {
		return Location{}, err
	}
	return s.applyPrivacy(objectID, loc), nil
}

// locate returns the pre-privacy fused location of a cache entry with
// readings: the lattice, its estimate and the symbolic region are
// computed once per entry, and the filled entry is published so the
// next query at the same keys is served from it.
func (s *Service) locate(objectID string, entry *locEntry) (Location, error) {
	if entry.hasLoc {
		return entry.loc, nil
	}
	lat := fusion.Build(s.db.Universe(), entry.readings)
	est, err := lat.Infer()
	if err != nil {
		return Location{}, fmt.Errorf("locate %s: %w", objectID, err)
	}
	loc := Location{
		Object:     objectID,
		Rect:       est.Rect,
		Prob:       est.Prob,
		Band:       s.classifier().Classify(est.Prob),
		Symbolic:   s.symbolicRegion(est.Rect),
		Coordinate: glob.CoordinateRect(glob.Symbolic(s.bld.Name), est.Rect),
		Support:    est.Support,
		Discarded:  est.Discarded,
		// At is the evaluation time of the readings the estimate was
		// fused from, which for a cache hit predates the query by less
		// than the cache quantum.
		At: entry.at,
	}
	// Publish a fresh immutable entry carrying the fused location; the
	// keys and readings are inherited from the entry just validated.
	filled := *entry
	filled.hasLoc = true
	filled.loc = loc
	s.cache.put(objectID, &filled)
	return loc, nil
}

// symbolicRegion finds the deepest symbolic region whose bounds
// contain the estimate (falling back to the region containing its
// centre); the lowest ID breaks a depth tie. It reads the stored rows
// in place and copies out only the winner's GLOB; an ID is formatted
// only on a depth tie.
func (s *Service) symbolicRegion(r geom.Rect) glob.GLOB {
	var best glob.GLOB
	var bestID string // best's ID once a tie needed it, else ""
	bestDepth := -1
	centre := r.Center()
	s.db.VisitIntersecting(r, func(o *spatialdb.Object) {
		switch o.Type {
		case "Room", "Corridor", "Floor":
		default:
			return
		}
		if !o.Bounds.ContainsRect(r) && !o.Bounds.ContainsPoint(centre) {
			return
		}
		d := o.GLOB.Depth()
		switch {
		case d < bestDepth:
			return
		case d == bestDepth:
			if bestID == "" {
				bestID = best.String()
			}
			id := o.ID()
			if id >= bestID {
				return
			}
			bestID = id
		default:
			bestID = ""
		}
		best, bestDepth = o.GLOB, d
	})
	return best
}

// SetPrivacy registers a privacy policy for an object (§4.5). A zero
// policy removes the restriction.
func (s *Service) SetPrivacy(objectID string, p PrivacyPolicy) {
	s.privMu.Lock()
	defer s.privMu.Unlock()
	if p == (PrivacyPolicy{}) {
		delete(s.privacy, objectID)
		return
	}
	s.privacy[objectID] = p
}

func (s *Service) applyPrivacy(objectID string, loc Location) Location {
	s.privMu.RLock()
	p, ok := s.privacy[objectID]
	s.privMu.RUnlock()
	if !ok {
		return loc
	}
	return s.applyPolicy(loc, p)
}

// ProbInRegion answers the region-based query "what is the probability
// that X is in region R?" (§4.2). The region may be symbolic or
// coordinate.
func (s *Service) ProbInRegion(objectID string, region glob.GLOB) (float64, fusion.Band, error) {
	rect, err := s.db.ResolveGLOB(region)
	if err != nil {
		return 0, 0, fmt.Errorf("region query: %w", err)
	}
	return s.probInRect(objectID, rect)
}

func (s *Service) probInRect(objectID string, rect geom.Rect) (float64, fusion.Band, error) {
	now := s.now()
	readings, _ := s.fusionState(objectID, now)
	if len(readings) == 0 {
		return 0, 0, fmt.Errorf("%w: %s", ErrUnknownObject, objectID)
	}
	p := fusion.ProbRegion(s.db.Universe(), readings, rect)
	return p, s.classifier().Classify(p), nil
}

// ObjectsInRegion answers "who is in room R?" (§1.1's region-based
// location): every mobile object whose probability of being in the
// region reaches minProb, with the probabilities.
//
// The scan is sublinear in total object count: candidates come from
// the per-stripe support R-trees instead of iterating every mobile
// object, and each candidate is gated on its live reading support — an
// object none of whose readings touch the region contributes nothing
// (the support-gated semantics, DESIGN.md §17).
func (s *Service) ObjectsInRegion(region glob.GLOB, minProb float64) (map[string]float64, error) {
	rect, err := s.db.ResolveGLOB(region)
	if err != nil {
		return nil, fmt.Errorf("region query: %w", err)
	}
	// One snapshot pins the whole scan to a consistent cut of the
	// reading tables. It blocks writers only while the candidates are
	// collected: each candidate carries its rows and epoch at the cut,
	// so the fusion runs after Close, outside every lock.
	snap := s.db.Snapshot()
	cands := snap.SupportCandidates(rect)
	snap.Close()
	return s.objectsInRegionOn(snap, rect, minProb, s.now(), cands), nil
}

// objectsInRegionOn runs the region scan over the candidates cands
// of one snapshot. Each candidate is gated on its live support, so
// any superset of the support candidates, in any order, gives the same
// result: each object's probability depends on that object alone.
func (s *Service) objectsInRegionOn(snap *spatialdb.Snapshot, rect geom.Rect, minProb float64, now time.Time, cands []spatialdb.Candidate) map[string]float64 {
	// Workers write only their own slot; the merge below reads them
	// after the fan-out returns.
	probs := make([]float64, len(cands))
	eval := func(i int) {
		e := s.fusionStateSnap(snap, &cands[i], now)
		if !e.supports(rect) {
			return
		}
		if p := fusion.ProbRegion(snap.Universe(), e.readings, rect); p >= minProb && p > 0 {
			probs[i] = p
		}
	}
	if s.pool != nil && len(cands) >= parallelFanThreshold {
		s.pool.fanOutChunked(len(cands), s.parallelism, eval)
	} else {
		for i := range cands {
			eval(i)
		}
	}
	// Size the result once instead of growing it hit by hit.
	n := 0
	for _, p := range probs {
		if p > 0 {
			n++
		}
	}
	out := make(map[string]float64, n)
	for i, p := range probs {
		if p > 0 {
			out[cands[i].ID] = p
		}
	}
	return out
}

// Subscribe registers a region-based notification (§4.3) and returns
// its ID. The condition is compiled into a spatial-database trigger;
// when a qualifying reading arrives, the service fuses the object's
// readings, and notifies the handler if the probability passes the
// thresholds.
func (s *Service) Subscribe(spec Subscription) (string, error) {
	if spec.Handler == nil {
		return "", fmt.Errorf("%w: nil handler", ErrBadSub)
	}
	rect, err := s.db.ResolveGLOB(spec.Region)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadSub, err)
	}
	s.mu.Lock()
	s.seq++
	id := "sub-" + strconv.Itoa(s.seq)
	sub := &subscription{id: id, spec: spec, region: rect}
	s.subs[id] = sub
	s.lastTrue[id] = make(map[string]bool)
	s.mu.Unlock()

	if err := s.db.AddTrigger(id, spec.Object, rect); err != nil {
		s.mu.Lock()
		s.dropSub(id)
		s.mu.Unlock()
		return "", err
	}
	return id, nil
}

// dispatchStored is the service's database Dispatcher. It picks out
// the objects with work — a matched trigger, a held subscription, or
// history on — deciding under one s.mu acquisition per batch, and runs
// their stored readings through observeStored on the inserting
// goroutine, in reading order: entry/exit edge detection depends on
// it, and the notifications reach the queue in evaluation order. Every
// entry carries the rows its own insert stored, so no snapshot is cut
// and no table is read.
func (s *Service) dispatchStored(stored []spatialdb.StoredReading) {
	var work []*spatialdb.StoredReading
	var busy map[string]bool
	s.mu.Lock()
	for i := range stored {
		ev := &stored[i]
		obj := ev.Reading.MObjectID
		// Once an object has work, its later readings all go with it: an
		// earlier one may leave it held.
		if !busy[obj] {
			if len(ev.Triggers) == 0 && s.history == nil && len(s.heldOf(obj)) == 0 {
				continue
			}
			if busy == nil {
				busy = make(map[string]bool, 8)
			}
			busy[obj] = true
		}
		work = append(work, ev)
	}
	s.mu.Unlock()
	for _, ev := range work {
		s.observeStored(ev)
	}
}

// observeStored is the one consumer of a stored reading. It fuses the
// rows the reading's own insert stored, once, through the cache keyed
// on the reading's epoch, and judges everything on that fusion, so a
// batch is judged reading by reading exactly as serial ingest would
// judge it:
//   - when the object had no live row before this reading, every
//     subscription held for it is released (an entry after expiry is
//     an entry);
//   - each held subscription whose region the reading misses is
//     rechecked (an exit), without notifying;
//   - each matched trigger is evaluated, and notifies on entry, or on
//     every qualifying reading when asked to;
//   - with history on, the fused location is recorded as LocateObject
//     would return it.
func (s *Service) observeStored(ev *spatialdb.StoredReading) {
	start := time.Now()
	trace := ev.Reading.Trace
	obj := ev.Reading.MObjectID
	now := s.now()
	sensorGen := s.db.SensorGeneration()
	specs, cls := s.sensorView()

	// Matched triggers first, then the held subscriptions the reading
	// misses: the two sets are disjoint, since a held subscription
	// whose region the reading intersects is a matched trigger.
	var subs []*subscription
	s.mu.Lock()
	for _, id := range ev.Triggers {
		if sub := s.subs[id]; sub != nil { // nil: unsubscribed since the match
			subs = append(subs, sub)
		}
	}
	triggers := len(subs)
	if held := s.heldOf(obj); len(held) > 0 && !ev.HadLiveRows(specs, now) {
		for _, sub := range slices.Clone(held) {
			s.setHeld(sub, obj, false)
		}
	}
	for _, sub := range s.heldOf(obj) {
		if !sub.region.Intersects(ev.Reading.Region) {
			subs = append(subs, sub)
		}
	}
	s.mu.Unlock()
	if len(subs) == 0 && s.history == nil {
		return
	}

	e := s.cachedFusion(obj, ev.Epoch, sensorGen, now, func() []fusion.Reading {
		return fusion.FromReadings(ev.LatestPerSensor(specs, now), specs, now, s.db.Universe().Area())
	})
	for i, sub := range subs {
		if 0 < i && i < triggers {
			start = time.Now()
		}
		var p float64
		var band fusion.Band
		holds := false
		if len(e.readings) > 0 {
			p = fusion.ProbRegion(s.db.Universe(), e.readings, sub.region)
			band = cls.Classify(p)
			holds = sub.qualifies(p, band)
		}
		s.mu.Lock()
		was, ok := s.setHeld(sub, obj, holds)
		s.mu.Unlock()
		if i >= triggers {
			continue
		}
		// A trigger_eval stage times one trigger (the first also the
		// shared fusion) and ends when the notification is handed to the
		// queue (or the evaluation decides not to notify); queue wait
		// belongs to notify.
		mTriggerEvals.Inc()
		mTriggerUs.Observe(float64(time.Since(start).Microseconds()))
		obs.SpanSince(trace, "trigger_eval", start)
		if !ok || !holds || (was && !sub.spec.EveryReading) {
			continue
		}
		n := Notification{
			SubscriptionID: sub.id,
			Object:         obj,
			Region:         sub.region,
			Prob:           p,
			Band:           band,
			At:             now,
			Trace:          trace,
		}
		s.enqueue(dispatch{fn: sub.spec.Handler, n: n, enq: time.Now()})
	}
	if s.history != nil && len(e.readings) > 0 {
		if loc, err := s.locate(obj, e); err == nil {
			s.history.record(s.applyPrivacy(obj, loc))
		}
	}
}

// Unsubscribe removes a subscription.
func (s *Service) Unsubscribe(id string) error {
	s.mu.Lock()
	ok := s.dropSub(id)
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: unknown subscription %s", ErrBadSub, id)
	}
	return s.db.RemoveTrigger(id)
}

// Subscriptions returns the number of active subscriptions.
func (s *Service) Subscriptions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// HealthState classifies a component's ability to do its job.
type HealthState int

// Health states, from best to worst.
const (
	Healthy HealthState = iota
	Degraded
	Down
)

// String names the state.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	default:
		return "down"
	}
}

// Health is the service's heartbeat snapshot (§4's Location Service as
// a long-running daemon needs to report whether it is keeping up).
type Health struct {
	// State summarizes: Healthy normally, Degraded when the
	// notification queue is running more than half full (handlers are
	// not keeping up), Down after Close.
	State HealthState
	// Uptime is time since New, on the service clock.
	Uptime time.Duration
	// Ingested counts readings accepted since start.
	Ingested uint64
	// Notifications counts notifications dispatched since start.
	Notifications uint64
	// Subscriptions is the number of active subscriptions.
	Subscriptions int
	// Sensors is the number of registered sensor instances.
	Sensors int
	// QueueDepth/QueueCap describe the notification backlog.
	QueueDepth, QueueCap int
}

// Health reports the service's current heartbeat state.
func (s *Service) Health() Health {
	h := Health{
		Uptime:        s.now().Sub(s.started),
		Ingested:      s.ingested.Load(),
		Notifications: s.notified.Load(),
		Subscriptions: s.Subscriptions(),
		Sensors:       len(s.db.Sensors()),
		QueueDepth:    len(s.notifyQ),
		QueueCap:      cap(s.notifyQ),
	}
	select {
	case <-s.stop:
		h.State = Down
	default:
		if h.QueueDepth*2 > h.QueueCap {
			h.State = Degraded
		}
	}
	return h
}

// ---------------------------------------------------------------------------
// Spatial relationships (§4.6)

// RelateRegions returns the RCC-8 relation between two regions and,
// when externally connected, the passage refinement (ECFP/ECRP/ECNP).
func (s *Service) RelateRegions(a, b glob.GLOB) (rcc.Relation, rcc.Passage, error) {
	// Prefer the graph for registered rooms (it knows the doors).
	if _, okA := s.graph.Region(a.String()); okA {
		if _, okB := s.graph.Region(b.String()); okB {
			return s.graph.Relation(a.String(), b.String())
		}
	}
	ra, err := s.db.ResolveGLOB(a)
	if err != nil {
		return 0, 0, err
	}
	rb, err := s.db.ResolveGLOB(b)
	if err != nil {
		return 0, 0, err
	}
	rel := rcc.Relate(ra, rb)
	return rel, rcc.PassageNone, nil
}

// RouteBetween returns the shortest traversable route between two
// symbolic regions.
func (s *Service) RouteBetween(a, b glob.GLOB, policy topo.TraversalPolicy) (topo.Route, error) {
	return s.graph.ShortestRoute(a.String(), b.String(), policy)
}

// RegionDistance returns the Euclidean and path distances between two
// symbolic regions (§4.6.1). The path distance is reported as +Inf
// when no traversable route exists.
func (s *Service) RegionDistance(a, b glob.GLOB, policy topo.TraversalPolicy) (euclidean, path float64, err error) {
	euclidean, err = s.graph.EuclideanDistance(a.String(), b.String())
	if err != nil {
		return 0, 0, err
	}
	path, err = s.graph.PathDistance(a.String(), b.String(), policy)
	if errors.Is(err, topo.ErrNoRoute) {
		return euclidean, topo.Infinity, nil
	}
	if err != nil {
		return 0, 0, err
	}
	return euclidean, path, nil
}

// RuleEngine builds a Datalog engine preloaded with the building's
// derived relation facts: ecfp/2, ecrp/2, ecnp/2 for adjacent regions
// and region/1 for every room and corridor. Applications add their own
// rules on top (§4.6.1's XSB Prolog reasoning).
func (s *Service) RuleEngine() *rules.Engine {
	e := rules.NewEngine()
	regions := s.graph.Regions()
	for _, r := range regions {
		e.AddFact("region", r.ID)
	}
	for i := 0; i < len(regions); i++ {
		for j := 0; j < len(regions); j++ {
			if i == j {
				continue
			}
			rel, pass, err := s.graph.Relation(regions[i].ID, regions[j].ID)
			if err != nil || rel != rcc.EC {
				continue
			}
			switch pass {
			case rcc.PassageFree:
				e.AddFact("ecfp", regions[i].ID, regions[j].ID)
			case rcc.PassageRestricted:
				e.AddFact("ecrp", regions[i].ID, regions[j].ID)
			default:
				e.AddFact("ecnp", regions[i].ID, regions[j].ID)
			}
		}
	}
	return e
}
