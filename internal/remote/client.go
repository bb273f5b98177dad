package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// ConnState is the client's connection lifecycle state.
type ConnState int

// Connection states.
const (
	// StateConnected: a live connection is serving calls and pushes.
	StateConnected ConnState = iota
	// StateReconnecting: the connection died and redial attempts are in
	// progress; calls block-and-retry, pushes are paused.
	StateReconnecting
	// StateClosed: Close was called; the client is permanently down.
	StateClosed
)

// String names the state.
func (s ConnState) String() string {
	switch s {
	case StateConnected:
		return "connected"
	case StateReconnecting:
		return "reconnecting"
	default:
		return "closed"
	}
}

// DialOptions tunes connection management. The zero value gives the
// historical defaults plus transparent reconnection.
type DialOptions struct {
	// DialTimeout bounds each TCP connect attempt (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds each RPC (default 10s).
	CallTimeout time.Duration
	// DialAttempts bounds the initial-dial retry loop and each call's
	// reconnect-and-retry loop (default 5; minimum 1).
	DialAttempts int
	// BackoffBase is the first redial delay; attempts double it up to
	// BackoffMax, plus jitter (defaults 25ms and 2s).
	BackoffBase, BackoffMax time.Duration
	// JitterSeed fixes the backoff jitter stream; zero seeds from the
	// clock (pass a value for reproducible chaos runs).
	JitterSeed int64
	// Wire is ignored: every connection speaks the binary frame.
	//
	// Deprecated: kept only for callers that still set it.
	Wire mwrpc.WirePref
	// OnStateChange, when non-nil, observes connection transitions
	// (called outside client locks, possibly from internal goroutines).
	OnStateChange func(ConnState)
	// Metrics receives the client's counters (reconnect rounds, replayed
	// subscriptions, malformed pushes, ...). Nil gives each client its
	// own registry, read back through Metrics(); pass obs.Default() to
	// fold the client into the process-global registry.
	Metrics *obs.Registry
}

func (o DialOptions) withDefaults() DialOptions {
	if o.DialTimeout <= 0 {
		o.DialTimeout = mwrpc.DefaultDialTimeout
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = mwrpc.DefaultCallTimeout
	}
	if o.DialAttempts <= 0 {
		o.DialAttempts = 5
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 25 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 2 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = time.Now().UnixNano()
	}
	return o
}

// clientSub is one live subscription in the client's session table:
// everything needed to re-establish it on a fresh connection.
type clientSub struct {
	// localID is the stable ID handed to the application; it never
	// changes across reconnects.
	localID string
	args    SubscribeArgs
	handler func(NotificationDTO)
	// serverID is the server's ID on the current connection.
	serverID string
	// lastSeen fingerprints the last delivered notification per object
	// (replay guard across a resubscription).
	lastSeen map[string]string
}

// LocationClient is the application-side handle to a remote Location
// Service. It satisfies adapter.Sink and adapter.Registrar, so
// adapters can run on machines other than the service (as the paper's
// CORBA adapters do).
//
// The client is fault tolerant: when the connection drops it redials
// with capped exponential backoff and resumes the session — sensors
// registered through it are re-registered and subscriptions are
// re-established, with their IDs unchanged — so adapters and
// applications never see the blip beyond added latency.
type LocationClient struct {
	addr string
	opts DialOptions

	mu         sync.Mutex
	rpc        *mwrpc.Client
	epoch      int // increments on every successful (re)connect
	state      ConnState
	closed     bool
	closedCh   chan struct{}
	rng        *rand.Rand
	lastErr    error
	reconnects int

	// reconnectDone is non-nil while a reconnect round is in flight;
	// waiters block on it.
	reconnectDone chan struct{}

	// Session table (replayed on reconnect).
	sensorOrder []string
	sensors     map[string]SensorSpecDTO
	subs        map[string]*clientSub
	serverToSub map[string]*clientSub
	subSeq      int

	// ackSubs routes stream acks (by stream ID) to open ingest streams.
	ackSubs map[uint64]*IngestStream

	// metrics holds the client's counters (per client unless
	// DialOptions.Metrics shares a registry); the handles below are
	// cached so the push path stays alloc-free.
	metrics      *obs.Registry
	mReconnects  *obs.Counter // reconnect rounds started
	mResubscribe *obs.Counter // subscriptions replayed on resume
	mMalformed   *obs.Counter // undecodable push payloads dropped
	mDeduped     *obs.Counter // post-reconnect replays suppressed
	mIngests     *obs.Counter // readings forwarded over mw.ingestBatch
	mBatches     *obs.Counter // mw.ingestBatch frames sent
	mIngestRTT   *obs.Histogram

	// Streaming-ingest instrumentation (see stream.go).
	mStreamBatches       *obs.Counter // stream batches sent
	mStreamResends       *obs.Counter // batches re-sent after a reconnect
	mStreamDropped       *obs.Counter // batches the server could not decode
	gStreamCreditBatches *obs.Gauge   // batch credits currently held
	gStreamCreditBytes   *obs.Gauge   // byte credits currently held
	gStreamUnacked       *obs.Gauge   // batches in flight awaiting an ack
}

// DialLocation connects to a remote Location Service with default
// options (reconnection enabled).
func DialLocation(addr string) (*LocationClient, error) {
	return DialLocationOptions(addr, DialOptions{})
}

// DialLocationOptions connects with explicit fault-tolerance knobs.
// The initial dial itself retries with the configured backoff.
func DialLocationOptions(addr string, opts DialOptions) (*LocationClient, error) {
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	lc := &LocationClient{
		addr:         addr,
		opts:         opts,
		state:        StateReconnecting,
		closedCh:     make(chan struct{}),
		rng:          rand.New(rand.NewSource(opts.JitterSeed)),
		sensors:      make(map[string]SensorSpecDTO),
		subs:         make(map[string]*clientSub),
		serverToSub:  make(map[string]*clientSub),
		ackSubs:      make(map[uint64]*IngestStream),
		metrics:      reg,
		mReconnects:  reg.Counter("client_reconnect_rounds_total"),
		mResubscribe: reg.Counter("client_resubscribed_total"),
		mMalformed:   reg.Counter("client_malformed_pushes_total"),
		mDeduped:     reg.Counter("client_deduped_notifications_total"),
		mIngests:     reg.Counter("client_ingests_total"),
		mBatches:     reg.Counter("client_ingest_batches_total"),
		mIngestRTT:   reg.Histogram("client_ingest_rtt_us"),

		mStreamBatches:       reg.Counter("remote_stream_batches_total"),
		mStreamResends:       reg.Counter("remote_stream_resends_total"),
		mStreamDropped:       reg.Counter("remote_stream_dropped_total"),
		gStreamCreditBatches: reg.Gauge("remote_stream_credit_batches"),
		gStreamCreditBytes:   reg.Gauge("remote_stream_credit_bytes"),
		gStreamUnacked:       reg.Gauge("remote_stream_unacked"),
	}
	var lastErr error
	for attempt := 0; attempt < opts.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(lc.backoff(attempt - 1))
		}
		rpc, err := lc.dialOnce()
		if err != nil {
			lastErr = err
			continue
		}
		lc.mu.Lock()
		lc.rpc = rpc
		lc.epoch = 1
		lc.state = StateConnected
		lc.mu.Unlock()
		lc.watch(rpc, 1)
		return lc, nil
	}
	return nil, lastErr
}

// dialOnce makes one connection attempt and installs the push handler.
func (c *LocationClient) dialOnce() (*mwrpc.Client, error) {
	rpc, err := mwrpc.DialOptions(c.addr, mwrpc.Options{
		DialTimeout: c.opts.DialTimeout,
		CallTimeout: c.opts.CallTimeout,
	})
	if err != nil {
		return nil, err
	}
	rpc.OnPush(NotifyStream, c.onNotify)
	rpc.OnStreamAck(c.routeAck)
	return rpc, nil
}

// backoff computes the delay before retry n (0-based), with jitter.
func (c *LocationClient) backoff(n int) time.Duration {
	d := c.opts.BackoffBase << uint(n)
	if d > c.opts.BackoffMax || d <= 0 {
		d = c.opts.BackoffMax
	}
	c.mu.Lock()
	j := time.Duration(c.rng.Int63n(int64(d)/2 + 1))
	c.mu.Unlock()
	return d/2 + j // uniform in [d/2, d]
}

// watch arms the reconnect watchdog for one connection epoch: when the
// connection dies and the client is still open, it starts a reconnect
// round even if no call is in flight (so pushes resume on their own).
func (c *LocationClient) watch(rpc *mwrpc.Client, epoch int) {
	go func() {
		<-rpc.Done()
		c.mu.Lock()
		stale := c.closed || c.epoch != epoch
		c.mu.Unlock()
		if !stale {
			c.awaitReconnect(epoch)
		}
	}()
}

// Close drops the connection, stops reconnection, and releases the
// session.
func (c *LocationClient) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.state = StateClosed
	close(c.closedCh)
	rpc := c.rpc
	c.mu.Unlock()
	c.notifyState(StateClosed)
	if rpc != nil {
		rpc.Close()
	}
}

func (c *LocationClient) notifyState(s ConnState) {
	if c.opts.OnStateChange != nil {
		c.opts.OnStateChange(s)
	}
}

// current snapshots the live connection.
func (c *LocationClient) current() (*mwrpc.Client, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, 0, mwrpc.ErrClosed
	}
	return c.rpc, c.epoch, nil
}

// awaitReconnect blocks until a reconnect round started at or after
// failedEpoch finishes (single-flight: one goroutine redials, the rest
// wait). It returns nil when a newer live connection is in place, and
// an error when the client closed or the round exhausted its attempts
// — so a call waiting on it is bounded by one round, not stuck forever
// against a dead server.
func (c *LocationClient) awaitReconnect(failedEpoch int) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return mwrpc.ErrClosed
	}
	if c.epoch > failedEpoch {
		c.mu.Unlock()
		return nil
	}
	done := c.reconnectDone
	started := false
	if done == nil {
		done = make(chan struct{})
		c.reconnectDone = done
		c.state = StateReconnecting
		c.reconnects++
		c.mReconnects.Inc()
		started = true
		go c.reconnectLoop(done)
	}
	c.mu.Unlock()
	if started {
		c.notifyState(StateReconnecting)
	}
	select {
	case <-done:
	case <-c.closedCh:
		return mwrpc.ErrClosed
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return mwrpc.ErrClosed
	}
	if c.epoch > failedEpoch {
		return nil
	}
	err := c.lastErr
	if err == nil {
		err = mwrpc.ErrClosed
	}
	return fmt.Errorf("remote: reconnect to %s failed: %w", c.addr, err)
}

// reconnectLoop redials with capped exponential backoff until it
// restores a session, exhausts its attempts, or the client closes,
// then wakes every waiter. A failed round leaves the client
// disconnected; the next call (or Dial-time watchdog firing) starts a
// fresh round.
func (c *LocationClient) reconnectLoop(done chan struct{}) {
	defer func() {
		c.mu.Lock()
		if c.reconnectDone == done {
			c.reconnectDone = nil
		}
		c.mu.Unlock()
		close(done)
	}()
	for attempt := 0; attempt < c.opts.DialAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-time.After(c.backoff(attempt - 1)):
			case <-c.closedCh:
				return
			}
		}
		select {
		case <-c.closedCh:
			return
		default:
		}
		rpc, err := c.dialOnce()
		if err != nil {
			c.setLastErr(err)
			continue
		}
		if err := c.resumeSession(rpc); err != nil {
			c.setLastErr(err)
			rpc.Close()
			continue
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			rpc.Close()
			return
		}
		old := c.rpc
		c.rpc = rpc
		c.epoch++
		epoch := c.epoch
		c.state = StateConnected
		c.mu.Unlock()
		if old != nil {
			old.Close()
		}
		c.watch(rpc, epoch)
		c.notifyState(StateConnected)
		return
	}
}

func (c *LocationClient) setLastErr(err error) {
	c.mu.Lock()
	c.lastErr = err
	c.mu.Unlock()
}

// resumeSession replays the session table on a fresh connection:
// sensors re-register in their original order, then every subscription
// is re-established and its server ID remapped to the stable local ID.
func (c *LocationClient) resumeSession(rpc *mwrpc.Client) error {
	c.mu.Lock()
	order := append([]string(nil), c.sensorOrder...)
	specs := make(map[string]SensorSpecDTO, len(c.sensors))
	for id, s := range c.sensors {
		specs[id] = s
	}
	subs := make([]*clientSub, 0, len(c.subs))
	for _, s := range c.subs {
		subs = append(subs, s)
	}
	c.mu.Unlock()

	for _, id := range order {
		if err := mwrpc.CallJSON(rpc, "mw.registerSensor", "", registerSensorArgs{
			SensorID: id, Spec: specs[id],
		}, nil); err != nil {
			return fmt.Errorf("remote: resume sensor %s: %w", id, err)
		}
	}
	for _, sub := range subs {
		var out subscribeReply
		if err := mwrpc.CallJSON(rpc, "mw.subscribe", "", sub.args, &out); err != nil {
			return fmt.Errorf("remote: resume subscription %s: %w", sub.localID, err)
		}
		c.mu.Lock()
		if _, live := c.subs[sub.localID]; live {
			delete(c.serverToSub, sub.serverID)
			sub.serverID = out.SubscriptionID
			c.serverToSub[out.SubscriptionID] = sub
			c.mResubscribe.Inc()
		}
		c.mu.Unlock()
	}
	return nil
}

// retry runs attempt on the live connection, reconnecting and
// retrying on transport failures; server-side errors return at once.
// Every request/response call rides this one loop.
func (c *LocationClient) retry(attempt func(rpc *mwrpc.Client) error) error {
	var lastErr error
	for i := 0; i < c.opts.DialAttempts; i++ {
		rpc, epoch, err := c.current()
		if err != nil {
			return err
		}
		err = attempt(rpc)
		if err == nil {
			return nil
		}
		if !mwrpc.IsTransportErr(err) {
			return err
		}
		lastErr = err
		if werr := c.awaitReconnect(epoch); werr != nil {
			return fmt.Errorf("%w (after %v)", werr, lastErr)
		}
	}
	return lastErr
}

// call invokes an idempotent JSON method through retry.
func (c *LocationClient) call(method string, params, result interface{}) error {
	return c.retry(func(rpc *mwrpc.Client) error { return mwrpc.CallJSON(rpc, method, "", params, result) })
}

// onNotify dispatches a pushed notification. Malformed payloads are
// counted (they feed Health), never silently dropped.
func (c *LocationClient) onNotify(payload []byte) {
	n, err := decodeNotification(payload)
	if err != nil {
		c.mMalformed.Inc()
		return
	}
	c.dispatchNotify(n)
}

// dispatchNotify routes a decoded notification to its handler,
// remapping the server's subscription ID to the stable local one.
func (c *LocationClient) dispatchNotify(n NotificationDTO) {
	c.mu.Lock()
	sub := c.serverToSub[n.SubscriptionID]
	var fn func(NotificationDTO)
	if sub != nil {
		// Replay guard: a resubscription can re-deliver the exact event
		// the application already saw; suppress identical repeats.
		fp := n.Time + "|" + strconv.FormatFloat(n.Prob, 'g', -1, 64) + "|" + n.Band
		if sub.lastSeen == nil {
			sub.lastSeen = make(map[string]string)
		}
		if sub.lastSeen[n.Object] == fp {
			c.mu.Unlock()
			c.mDeduped.Inc()
			return
		}
		sub.lastSeen[n.Object] = fp
		n.SubscriptionID = sub.localID
		fn = sub.handler
	}
	c.mu.Unlock()
	if fn != nil {
		fn(n)
	}
}

// callBinary is call for the hot methods, whose payloads are
// hand-rolled binary: enc appends the request, dec parses the reply.
func (c *LocationClient) callBinary(method, trace string, enc mwrpc.Appender, dec func([]byte) error) error {
	return c.retry(func(rpc *mwrpc.Client) error { return rpc.Call(method, trace, enc, dec) })
}

// Ingest forwards a sensor reading (adapter.Sink) as a batch of one,
// so it shares IngestBatch's frame, delivery and error semantics: a
// reading the server rejects comes back as a *spatialdb.RejectedError
// with Indices [0], exactly as core.Service.Ingest reports it locally.
func (c *LocationClient) Ingest(r model.Reading) error {
	return c.IngestBatch([]model.Reading{r})
}

// IngestBatch forwards a slice of readings in one mw.ingestBatch
// frame (adapter.BatchSink): one round trip and one server-side
// database pass instead of len(rs). Delivery is at-least-once across
// reconnects — a batch whose acknowledgement was lost may be stored
// twice, which the spatial database tolerates (identical reading rows
// fuse to the same posterior).
//
// When tracing is enabled the frame is traced end to end: one trace
// ID (the first reading's, else a fresh one) travels on the request
// frame, the server stamps it on every reading, and it comes back on
// the notifications they provoke.
//
// Readings the server rejected (bad decode, unknown sensor) are
// reported as a *spatialdb.RejectedError carrying frame indices; the
// rest of the batch was stored, so callers must not re-send the whole
// slice on that error — a resilient sink retries only the rejected
// indices.
func (c *LocationClient) IngestBatch(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	trace := rs[0].Trace
	if trace == "" && obs.Enabled() {
		trace = obs.BeginTrace()
	}
	start := time.Now()
	var reply IngestBatchReply
	err := c.callBinary("mw.ingestBatch", trace,
		func(b []byte) []byte { return AppendReadings(b, rs) },
		func(payload []byte) error {
			var derr error
			reply, derr = DecodeIngestReply(payload)
			return derr
		})
	if err == nil {
		c.mIngests.Add(uint64(reply.Accepted))
		c.mBatches.Inc()
		c.mIngestRTT.Observe(float64(time.Since(start).Microseconds()))
	}
	obs.SpanSince(trace, "rpc_ingest", start)
	if err != nil {
		return err
	}
	if len(reply.Rejected) > 0 {
		rej := &spatialdb.RejectedError{
			Indices: make([]int, 0, len(reply.Rejected)),
			Errs:    make([]error, 0, len(reply.Rejected)),
		}
		for _, rd := range reply.Rejected {
			rej.Indices = append(rej.Indices, rd.Index)
			rej.Errs = append(rej.Errs, errors.New(rd.Error))
		}
		return rej
	}
	return nil
}

// Metrics returns the client's metric registry (reconnect rounds,
// replayed subscriptions, malformed pushes, ingest round trips).
func (c *LocationClient) Metrics() *obs.Registry { return c.metrics }

// WireCodec reports the frame codec, which is always binary.
//
// Deprecated: kept only for callers that still check it.
func (c *LocationClient) WireCodec() mwrpc.Codec { return mwrpc.CodecBinary }

// RegisterSensor registers a sensor calibration (adapter.Registrar)
// and records it in the session table for replay after a reconnect.
func (c *LocationClient) RegisterSensor(sensorID string, spec model.SensorSpec) error {
	dto := toSpecDTO(spec)
	if err := c.call("mw.registerSensor", registerSensorArgs{
		SensorID: sensorID,
		Spec:     dto,
	}, nil); err != nil {
		return err
	}
	c.mu.Lock()
	if _, seen := c.sensors[sensorID]; !seen {
		c.sensorOrder = append(c.sensorOrder, sensorID)
	}
	c.sensors[sensorID] = dto
	c.mu.Unlock()
	return nil
}

// Locate asks where an object is.
func (c *LocationClient) Locate(object string) (LocationDTO, error) {
	var out LocationDTO
	err := c.callBinary("mw.locate", "",
		func(b []byte) []byte { return mwrpc.AppendString(b, object) },
		func(payload []byte) error {
			var derr error
			out, derr = decodeLocation(payload)
			return derr
		})
	return out, err
}

// ProbInRegion asks for the probability that an object is in a region
// (GLOB string).
func (c *LocationClient) ProbInRegion(object, region string) (prob float64, band string, err error) {
	var out probReply
	q := fed.RegionQuery{Object: object, Region: region}
	err = c.callBinary("mw.probInRegion", "",
		func(b []byte) []byte { return fed.AppendRegionQuery(b, q) },
		func(payload []byte) error {
			var derr error
			out, derr = decodeProbReply(payload)
			return derr
		})
	return out.Prob, out.Band, err
}

// ObjectsInRegion asks who is in a region with at least minProb.
func (c *LocationClient) ObjectsInRegion(region string, minProb float64) (map[string]float64, error) {
	var out map[string]float64
	q := fed.RegionQuery{Region: region, MinProb: minProb}
	err := c.callBinary("mw.objectsInRegion", "",
		func(b []byte) []byte { return fed.AppendRegionQuery(b, q) },
		func(payload []byte) error {
			var derr error
			out, derr = fed.DecodeObjectsReply(payload)
			return derr
		})
	return out, err
}

// Subscribe registers a notification condition; handler runs on the
// client's push-reader goroutine. It returns the subscription ID,
// which stays valid across reconnects (the client re-subscribes on the
// server and keeps the mapping).
func (c *LocationClient) Subscribe(args SubscribeArgs, handler func(NotificationDTO)) (string, error) {
	var id string
	err := c.retry(func(rpc *mwrpc.Client) error {
		var out subscribeReply
		if err := mwrpc.CallJSON(rpc, "mw.subscribe", "", args, &out); err != nil {
			return err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.rpc != rpc {
			// The connection died right after the server accepted the
			// subscription; the server has already cleaned it up with
			// the dead connection. Try again on the new one.
			return mwrpc.ErrClosed
		}
		// The stable ID handed out is client-generated: server IDs are
		// per-server-instance and could collide with an older session's
		// IDs after a server restart.
		c.subSeq++
		sub := &clientSub{
			localID:  "csub-" + strconv.Itoa(c.subSeq),
			args:     args,
			handler:  handler,
			serverID: out.SubscriptionID,
		}
		c.subs[sub.localID] = sub
		c.serverToSub[sub.serverID] = sub
		id = sub.localID
		return nil
	})
	return id, err
}

// Unsubscribe removes a subscription by its stable ID. Transport
// failures during the server call are absorbed: the session table no
// longer holds the subscription, so it will not be resumed, and the
// dead connection's server-side state is cleaned up by the server.
func (c *LocationClient) Unsubscribe(id string) error {
	c.mu.Lock()
	sub, ok := c.subs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("remote: unknown subscription %s", id)
	}
	delete(c.subs, id)
	delete(c.serverToSub, sub.serverID)
	serverID := sub.serverID
	c.mu.Unlock()
	err := c.call("mw.unsubscribe", unsubscribeArgs{SubscriptionID: serverID}, nil)
	if mwrpc.IsTransportErr(err) {
		return nil
	}
	return err
}

// Relate returns the RCC-8 relation and passage between two regions.
func (c *LocationClient) Relate(a, b string) (relation, passage string, err error) {
	var out relateReply
	err = c.call("mw.relate", relateArgs{A: a, B: b}, &out)
	return out.Relation, out.Passage, err
}

// Route returns the shortest route between two regions; policy is
// "free" or "restricted".
func (c *LocationClient) Route(from, to, policy string) (RouteReply, error) {
	var out RouteReply
	err := c.call("mw.route", routeArgs{From: from, To: to, Policy: policy}, &out)
	return out, err
}

// Proximity returns the probability two objects are within threshold.
func (c *LocationClient) Proximity(a, b string, threshold float64) (float64, error) {
	var out probReply
	err := c.call("mw.proximity", proximityArgs{A: a, B: b, Threshold: threshold}, &out)
	return out.Prob, err
}

// CoLocated reports whether two objects share a region at granularity
// "building", "floor", or "room".
func (c *LocationClient) CoLocated(a, b, granularity string) (bool, float64, error) {
	var out coLocatedReply
	err := c.call("mw.coLocated", coLocatedArgs{A: a, B: b, Granularity: granularity}, &out)
	return out.CoLocated, out.Prob, err
}

// Query runs an mwql statement ("SELECT objects WHERE ...") against
// the service's spatial database.
func (c *LocationClient) Query(query string) ([]ObjectDTO, error) {
	var out []ObjectDTO
	err := c.call("mw.query", queryArgs{Query: query}, &out)
	return out, err
}

// Distribution fetches an object's full spatial posterior.
func (c *LocationClient) Distribution(object string) ([]RegionProbDTO, error) {
	var out []RegionProbDTO
	err := c.call("mw.distribution", distributionArgs{Object: object}, &out)
	return out, err
}

// History fetches an object's recorded location trail (requires the
// service to run with history enabled).
func (c *LocationClient) History(object string) ([]LocationDTO, error) {
	var out []LocationDTO
	err := c.call("mw.history", objectArgs{Object: object}, &out)
	return out, err
}

// DefineRegion creates an application-defined symbolic region on the
// service; points are polygon vertices in the GLOB prefix's frame.
func (c *LocationClient) DefineRegion(globStr string, points [][2]float64, properties map[string]string) error {
	return c.call("mw.defineRegion", defineRegionArgs{
		GLOB: globStr, Points: points, Properties: properties,
	}, nil)
}

// ServerHealth fetches the remote service's heartbeat snapshot.
func (c *LocationClient) ServerHealth() (HealthDTO, error) {
	var out HealthDTO
	err := c.call("mw.health", struct{}{}, &out)
	return out, err
}

// Stats fetches the remote service's observability snapshot; traces
// caps the recent traces included (0 = metrics only).
func (c *LocationClient) Stats(traces int) (StatsDTO, error) {
	var out StatsDTO
	err := c.call("mw.stats", StatsArgs{Traces: traces}, &out)
	return out, err
}

// ClientHealth is the client-side view of the connection's health.
type ClientHealth struct {
	// State is Healthy while connected and clean, Degraded while
	// reconnecting or after malformed pushes were seen, Down once
	// closed.
	State core.HealthState
	// Conn is the raw connection state.
	Conn ConnState
	// Reconnects counts reconnect rounds since dial.
	Reconnects int
	// MalformedNotifications counts undecodable push payloads dropped;
	// DedupedNotifications counts suppressed post-reconnect replays.
	MalformedNotifications, DedupedNotifications uint64
	// Sensors and Subscriptions size the resumable session.
	Sensors, Subscriptions int
	// LastError is the most recent transport error, if any.
	LastError string
}

// Health reports the client's connection health. The mapping feeds
// mwctl's health command: Connected and clean is Healthy; a reconnect
// in progress or malformed pushes mean Degraded; Closed is Down.
func (c *LocationClient) Health() ClientHealth {
	c.mu.Lock()
	h := ClientHealth{
		Conn:          c.state,
		Reconnects:    c.reconnects,
		Sensors:       len(c.sensors),
		Subscriptions: len(c.subs),
	}
	if c.lastErr != nil {
		h.LastError = c.lastErr.Error()
	}
	c.mu.Unlock()
	h.MalformedNotifications = c.mMalformed.Value()
	h.DedupedNotifications = c.mDeduped.Value()
	switch {
	case h.Conn == StateClosed:
		h.State = core.Down
	case h.Conn == StateReconnecting || h.MalformedNotifications > 0:
		h.State = core.Degraded
	default:
		h.State = core.Healthy
	}
	return h
}
