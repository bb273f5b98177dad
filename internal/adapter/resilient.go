// Graceful degradation for adapters whose sink is remote: when the
// Location Service is unreachable, readings buffer locally (bounded;
// an overflow drops the oldest reading) instead of erroring back into
// device code, a circuit breaker quarantines a persistently failing
// sink so every emit doesn't pay a timeout, and a
// Healthy/Degraded/Down state summarizes the pipeline for operators.
package adapter

import (
	"errors"
	"sync"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// ResilientSink metrics, cached once; Pending is reported as a gauge
// whenever it changes.
var (
	mResForwarded    = obs.Default().Counter("resilient_forwarded_total")
	mResBuffered     = obs.Default().Counter("resilient_buffered_total")
	mResDropped      = obs.Default().Counter("resilient_dropped_total")
	mResRejected     = obs.Default().Counter("resilient_rejected_total")
	mResBreakerOpens = obs.Default().Counter("resilient_breaker_opens_total")
	mResCreditStalls = obs.Default().Counter("resilient_credit_stalls_total")
	mResProbes       = obs.Default().Counter("resilient_probes_total")
	mResProbeFails   = obs.Default().Counter("resilient_probe_failures_total")
	mResPending      = obs.Default().Gauge("resilient_pending")
)

// Prober is an optional Sink capability: a cheap liveness check that
// neither reads nor writes data (the remote LocationClient sends the
// no-op mw.hello frame). When the wrapped sink implements it, the
// breaker's half-open trial is a probe ahead of the data delivery — a
// still-down sink costs one empty frame, never a data delivery, and
// the readings stay buffered exactly where they were.
type Prober interface {
	Probe() error
}

// ResilientOptions tunes a ResilientSink. The zero value is usable.
type ResilientOptions struct {
	// BufferSize bounds the number of readings held while the sink is
	// down (default 256). An overflow drops the oldest reading: a newer
	// location fix supersedes an older one anyway.
	BufferSize int
	// FailureThreshold is how many consecutive delivery failures open
	// the circuit breaker (default 3).
	FailureThreshold int
	// Cooldown is how long an open breaker quarantines the sink before
	// probing it again (default 1s).
	Cooldown time.Duration
	// RetryInterval paces drain attempts while readings are buffered
	// and the breaker is closed (default 50ms).
	RetryInterval time.Duration
	// Clock supplies time (tests); defaults to time.Now.
	Clock func() time.Time
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.BufferSize <= 0 {
		o.BufferSize = 256
	}
	if o.FailureThreshold <= 0 {
		o.FailureThreshold = 3
	}
	if o.Cooldown <= 0 {
		o.Cooldown = time.Second
	}
	if o.RetryInterval <= 0 {
		o.RetryInterval = 50 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// ResilientStats counts what the sink did. Every accepted reading is
// in exactly one of Forwarded, Dropped and Pending.
type ResilientStats struct {
	// Forwarded were stored by the sink; Buffered entered the buffer at
	// least once; Dropped were discarded — the oldest on overflow, and
	// whatever was still buffered at Close.
	Forwarded, Buffered, Dropped uint64
	// Rejected counts per-reading validation rejections reported by the
	// sink. Rejected readings stay buffered for a paced retry, so one
	// persistently invalid reading increments this once per attempt.
	Rejected uint64
	// CreditStalls counts deliveries deferred because the sink's credit
	// window was exhausted (streaming-ingest backpressure). Stalled
	// readings buffer and retry; the breaker does not open.
	CreditStalls uint64
	// Probes counts half-open liveness probes sent to a Prober sink;
	// ProbeFails counts the ones that failed (each re-opens the
	// breaker for another cooldown without touching the buffer).
	Probes, ProbeFails uint64
	// BreakerOpens counts closed→open transitions.
	BreakerOpens int
	// Pending is the buffer depth plus the readings of the delivery in
	// flight.
	Pending int
}

// ResilientSink wraps a BatchSink (typically a remote LocationClient
// or IngestStream) with a bounded ingest buffer and a circuit breaker.
// Ingest never returns a sink error: delivery failures degrade service
// (buffering, then dropping the oldest) instead of propagating into
// device code.
//
// Every reading travels through deliver: one IngestBatch call and one
// settle step. At most one delivery is in flight; it runs on the
// caller's goroutine while the sink is healthy, on the drain goroutine
// otherwise.
type ResilientSink struct {
	sink   BatchSink
	prober Prober // nil when the sink has no liveness check
	opts   ResilientOptions

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when the buffer grows or a delivery settles
	buf      []model.Reading
	inflight int // readings of the one delivery in flight; 0 when none
	stats    ResilientStats
	closed   bool
	stop     chan struct{} // closed by Close: wakes a drain asleep in a backoff
	done     chan struct{} // closed by the drain goroutine on exit

	// breaker state
	consecFails int
	openUntil   time.Time
}

// batchDrainMax bounds one drain delivery; it matches the batcher's
// default flush size.
const batchDrainMax = 64

// NewResilientSink wraps sink. Close releases the drain goroutine.
func NewResilientSink(sink BatchSink, opts ResilientOptions) *ResilientSink {
	r := &ResilientSink{
		sink: sink,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.prober, _ = sink.(Prober)
	r.cond = sync.NewCond(&r.mu)
	go r.drain()
	return r
}

// Ingest implements Sink as an IngestBatch of one.
func (r *ResilientSink) Ingest(reading model.Reading) error {
	return r.IngestBatch([]model.Reading{reading})
}

// IngestBatch implements BatchSink. While nothing is buffered, no
// delivery is in flight and the breaker is closed, the batch is
// delivered synchronously in one call; otherwise it joins the back of
// the buffer and the drain delivers it in arrival order. It fails only
// after Close.
func (r *ResilientSink) IngestBatch(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return ErrClosed
	}
	if len(r.buf) == 0 && r.inflight == 0 && !r.breakerOpen() {
		r.deliver(rs, false)
		return nil
	}
	r.buf = append(r.buf, rs...)
	r.stats.Buffered += uint64(len(rs))
	mResBuffered.Add(uint64(len(rs)))
	r.trim()
	r.cond.Broadcast()
	return nil
}

// deliver hands chunk to the sink in its one IngestBatch call —
// preceded, while the breaker is half-open, by the Prober trial — and
// settles the outcome once:
//
//   - stored: the chunk is forwarded and the breaker closes;
//   - credit stall (mwrpc.ErrNoCredit): nothing was sent and the
//     transport is healthy, so the whole chunk retries and the breaker
//     stays closed — opening it would turn backpressure into an outage;
//   - *spatialdb.RejectedError: the sink stored everything else, so
//     only the rejected readings retry (re-sending the whole chunk
//     would duplicate stored rows; an unknown sensor during startup
//     ordering heals once its registration lands);
//   - a failed probe or a transport failure: nothing landed, the
//     breaker counts it and the whole chunk retries.
//
// Readings that retry go back to the buffer front in arrival order.
// queued says the chunk came off the buffer, so its readings were
// already counted as buffered. Called with r.mu held and no delivery
// in flight; the lock is released around the sink calls. It reports
// whether every reading was stored.
func (r *ResilientSink) deliver(chunk []model.Reading, queued bool) bool {
	r.inflight = len(chunk)
	probe := r.prober != nil && r.consecFails >= r.opts.FailureThreshold
	if probe {
		r.stats.Probes++
		mResProbes.Inc()
	}
	r.mu.Unlock()
	var perr, err error
	if probe {
		perr = r.prober.Probe()
	}
	if perr == nil {
		err = r.sink.IngestBatch(chunk)
	}
	r.mu.Lock()
	r.inflight = 0
	defer r.cond.Broadcast()

	retry := chunk
	var rej *spatialdb.RejectedError
	switch {
	case perr != nil:
		r.stats.ProbeFails++
		mResProbeFails.Inc()
		r.noteFailure()
	case err == nil:
		r.consecFails = 0
		retry = nil
	case errors.Is(err, mwrpc.ErrNoCredit):
		r.consecFails = 0
		r.stats.CreditStalls++
		mResCreditStalls.Inc()
	case errors.As(err, &rej):
		// The breaker tracks transport health, not data validity.
		r.consecFails = 0
		r.stats.Rejected += uint64(len(rej.Indices))
		mResRejected.Add(uint64(len(rej.Indices)))
		retry = make([]model.Reading, 0, len(rej.Indices))
		for _, i := range rej.Indices {
			if i >= 0 && i < len(chunk) {
				retry = append(retry, chunk[i])
			}
		}
	default:
		r.noteFailure()
	}
	if stored := uint64(len(chunk) - len(retry)); stored > 0 {
		r.stats.Forwarded += stored
		mResForwarded.Add(stored)
	}
	switch {
	case len(retry) == 0:
	case r.closed:
		r.drop(len(retry))
	default:
		if !queued {
			r.stats.Buffered += uint64(len(retry))
			mResBuffered.Add(uint64(len(retry)))
		}
		buf := make([]model.Reading, 0, len(retry)+len(r.buf))
		r.buf = append(append(buf, retry...), r.buf...)
	}
	r.trim()
	return len(retry) == 0
}

// trim drops the oldest readings while the buffer is over its bound
// and reports the pending gauge; called with r.mu held.
func (r *ResilientSink) trim() {
	if over := len(r.buf) - r.opts.BufferSize; over > 0 {
		r.buf = r.buf[over:]
		r.drop(over)
	}
	mResPending.Set(float64(r.pending()))
}

// pending is what Stats reports as Pending: buffered readings plus the
// delivery in flight; called with r.mu held.
func (r *ResilientSink) pending() int { return len(r.buf) + r.inflight }

// drop counts n discarded readings; called with r.mu held.
func (r *ResilientSink) drop(n int) {
	r.stats.Dropped += uint64(n)
	mResDropped.Add(uint64(n))
}

// breakerOpen reports quarantine state; called with r.mu held.
func (r *ResilientSink) breakerOpen() bool {
	return r.consecFails >= r.opts.FailureThreshold &&
		r.opts.Clock().Before(r.openUntil)
}

// noteFailure records a delivery failure; called with r.mu held.
func (r *ResilientSink) noteFailure() {
	r.consecFails++
	if r.consecFails == r.opts.FailureThreshold {
		r.stats.BreakerOpens++
		mResBreakerOpens.Inc()
	}
	if r.consecFails >= r.opts.FailureThreshold {
		r.openUntil = r.opts.Clock().Add(r.opts.Cooldown)
	}
}

// drain delivers buffered readings in order, up to batchDrainMax per
// call, sleeping out an open breaker's cooldown and pacing retries by
// RetryInterval.
func (r *ResilientSink) drain() {
	defer close(r.done)
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		for !r.closed && (len(r.buf) == 0 || r.inflight > 0) {
			r.cond.Wait()
		}
		if r.closed {
			return
		}
		var wait time.Duration
		if r.breakerOpen() {
			wait = r.openUntil.Sub(r.opts.Clock())
		} else {
			n := min(len(r.buf), batchDrainMax)
			chunk := r.buf[:n:n]
			r.buf = r.buf[n:]
			if !r.deliver(chunk, true) {
				wait = r.opts.RetryInterval
			}
		}
		if wait > 0 {
			r.mu.Unlock()
			r.sleep(wait)
			r.mu.Lock()
		}
	}
}

// sleep waits without holding r.mu, waking early on Close.
func (r *ResilientSink) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.stop:
	}
}

// Health classifies the pipeline: Healthy when the breaker is closed
// and nothing is pending, Degraded while readings are pending or
// recent failures occurred, Down while the breaker quarantines the
// sink (or after Close).
func (r *ResilientSink) Health() core.HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed, r.breakerOpen():
		return core.Down
	case r.pending() > 0 || r.consecFails > 0:
		return core.Degraded
	default:
		return core.Healthy
	}
}

// Stats snapshots the counters.
func (r *ResilientSink) Stats() ResilientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Pending = r.pending()
	return s
}

// Flush blocks until nothing is pending or the timeout expires,
// reporting whether everything was delivered.
func (r *ResilientSink) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		empty := r.pending() == 0
		closed := r.closed
		r.mu.Unlock()
		if empty {
			return true
		}
		if closed || time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Close stops the drain goroutine and waits for a delivery in flight
// to settle; buffered readings still undelivered are dropped (counted
// in Stats). Flush first for a clean handover.
func (r *ResilientSink) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
		r.drop(len(r.buf))
		r.buf = nil
		r.cond.Broadcast()
	}
	for r.inflight > 0 {
		r.cond.Wait()
	}
	mResPending.Set(0)
	r.mu.Unlock()
	<-r.done
}
