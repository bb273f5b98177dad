// Graceful degradation for adapters whose sink is remote: when the
// Location Service is unreachable, readings buffer locally (bounded,
// with an explicit drop policy) instead of erroring back into device
// code, a circuit breaker quarantines a persistently failing sink so
// every emit doesn't pay a timeout, and a Healthy/Degraded/Down state
// summarizes the pipeline for operators (surfaced through mwctl).
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
// whenever the buffer length changes.
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
// breaker's half-open trial is a probe instead of a buffered chunk —
// a still-down sink costs one empty frame, never a data delivery, and
// the buffered readings stay exactly where they are.
type Prober interface {
	Probe() error
}

// creditStalled reports whether a delivery failed only because the
// sink's credit window is exhausted (streaming ingest backpressure).
// Nothing was sent and the transport is healthy: the reading buffers
// for a paced retry and the circuit breaker stays closed — opening it
// would turn ordinary backpressure into an outage.
func creditStalled(err error) bool {
	return errors.Is(err, mwrpc.ErrNoCredit)
}

// rejectedIn extracts the sink's per-reading validation report from a
// delivery error, or nil when the failure is transport-class. The
// distinction drives retry policy: a validation rejection means the
// sink stored everything else in the batch, so re-delivering the whole
// batch would duplicate stored rows; a transport error means nothing
// landed and the batch is safe to retry whole.
func rejectedIn(err error) *spatialdb.RejectedError {
	var rej *spatialdb.RejectedError
	if errors.As(err, &rej) {
		return rej
	}
	return nil
}

// DropPolicy says which reading to discard when the buffer is full.
type DropPolicy int

// Drop policies.
const (
	// DropOldest discards the oldest buffered reading (prefer fresh
	// data — the right default for location fixes, where a newer
	// reading supersedes an older one anyway).
	DropOldest DropPolicy = iota
	// DropNewest discards the incoming reading (preserve history).
	DropNewest
)

// ResilientOptions tunes a ResilientSink. The zero value is usable.
type ResilientOptions struct {
	// BufferSize bounds the number of readings held while the sink is
	// down (default 256).
	BufferSize int
	// Policy picks the victim when the buffer overflows.
	Policy DropPolicy
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

// ResilientStats counts what the sink did.
type ResilientStats struct {
	// Forwarded reached the sink; Buffered entered the buffer at least
	// once; Dropped were discarded by the overflow policy.
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
	// Pending is the current buffer depth.
	Pending int
}

// ResilientSink wraps any Sink (typically a remote LocationClient)
// with a bounded ingest buffer and a circuit breaker. Ingest never
// returns a sink error: delivery failures degrade service (buffering,
// then dropping by policy) instead of propagating into device code.
type ResilientSink struct {
	sink Sink
	opts ResilientOptions

	mu     sync.Mutex
	cond   *sync.Cond
	buf    []model.Reading
	stats  ResilientStats
	closed bool
	stop   chan struct{} // closed by Close: wakes a drain asleep in a backoff
	done   chan struct{} // closed by the drain goroutine on exit

	// breaker state
	consecFails int
	openUntil   time.Time

	// frontDrops counts DropOldest evictions; the drain uses the delta
	// across an unlocked delivery to tell how much of its chunk is
	// still at the buffer's front.
	frontDrops uint64
}

// batchDrainMax bounds one drain delivery; it matches the batcher's
// default flush size.
const batchDrainMax = 64

// NewResilientSink wraps sink. Close releases the drain goroutine.
func NewResilientSink(sink Sink, opts ResilientOptions) *ResilientSink {
	r := &ResilientSink{
		sink: sink,
		opts: opts.withDefaults(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.cond = sync.NewCond(&r.mu)
	go r.drain()
	return r
}

// Ingest implements Sink. The fast path delivers synchronously; when
// the sink is failing (or order would be violated because readings are
// already buffered), the reading is buffered and delivered in the
// background, preserving arrival order.
func (r *ResilientSink) Ingest(reading model.Reading) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if len(r.buf) == 0 && !r.breakerOpen() {
		r.mu.Unlock()
		err := r.sink.Ingest(reading)
		if err == nil {
			r.mu.Lock()
			r.noteSuccess()
			r.stats.Forwarded++
			r.mu.Unlock()
			mResForwarded.Inc()
			return nil
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		if creditStalled(err) {
			// Backpressure, not failure: nothing was sent, the transport
			// is healthy. Buffer and let the drain retry after acks
			// replenish the window.
			r.noteSuccess()
			r.stats.CreditStalls++
			mResCreditStalls.Inc()
		} else if rejectedIn(err) == nil {
			r.noteFailure()
		} else {
			// Validation rejection: the transport worked, so the breaker
			// stays closed; the reading buffers for a paced retry (an
			// unknown sensor during startup ordering heals once the
			// registration lands).
			r.noteSuccess()
			r.stats.Rejected++
			mResRejected.Inc()
		}
	}
	r.enqueue(reading)
	r.mu.Unlock()
	return nil
}

// enqueue adds a reading under r.mu, applying the drop policy.
func (r *ResilientSink) enqueue(reading model.Reading) {
	if len(r.buf) >= r.opts.BufferSize {
		r.stats.Dropped++
		mResDropped.Inc()
		if r.opts.Policy == DropNewest {
			return
		}
		r.buf = r.buf[1:]
		r.frontDrops++
	}
	r.buf = append(r.buf, reading)
	r.stats.Buffered++
	mResBuffered.Inc()
	mResPending.Set(float64(len(r.buf)))
	r.cond.Signal()
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

// noteSuccess closes the breaker; called with r.mu held.
func (r *ResilientSink) noteSuccess() {
	r.consecFails = 0
}

// drain delivers buffered readings in order, probing a quarantined
// sink after each cooldown. A batch-capable sink receives chunks of up
// to batchDrainMax readings in one call; others get one at a time.
//
// Retry policy is error-class dependent. A transport failure means
// nothing landed, so the chunk is retried whole — with a remote sink
// that is the same at-least-once contract single readings already
// have. A validation rejection (*spatialdb.RejectedError) means the
// sink stored everything except the rejected readings: the chunk is
// popped (retrying it whole would duplicate the stored rows and wedge
// the buffer behind a persistently invalid reading) and only the
// rejects re-enter the buffer for a paced retry.
func (r *ResilientSink) drain() {
	defer close(r.done)
	bs, batching := r.sink.(BatchSink)
	prober, canProbe := r.sink.(Prober)
	r.mu.Lock()
	for {
		for !r.closed && len(r.buf) == 0 {
			r.cond.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		if r.breakerOpen() {
			wait := r.openUntil.Sub(r.opts.Clock())
			r.mu.Unlock()
			r.sleep(wait)
			r.mu.Lock()
			continue
		}
		if canProbe && r.consecFails >= r.opts.FailureThreshold {
			// Half-open: the cooldown elapsed but the sink never
			// succeeded since the breaker opened. Trial with a no-op
			// liveness frame, not buffered data — a failed probe re-arms
			// the quarantine and the buffer is untouched.
			r.stats.Probes++
			mResProbes.Inc()
			r.mu.Unlock()
			perr := prober.Probe()
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				return
			}
			if perr != nil {
				r.stats.ProbeFails++
				mResProbeFails.Inc()
				r.noteFailure()
				continue
			}
			// Probe passed; fall through and deliver the chunk. The
			// breaker closes only when the data delivery itself succeeds.
		}
		n := 1
		if batching && len(r.buf) > 1 {
			n = len(r.buf)
			if n > batchDrainMax {
				n = batchDrainMax
			}
		}
		chunk := append([]model.Reading(nil), r.buf[:n]...)
		drops0 := r.frontDrops
		r.mu.Unlock()
		var err error
		if len(chunk) > 1 {
			err = bs.IngestBatch(chunk)
		} else {
			err = r.sink.Ingest(chunk[0])
		}
		r.mu.Lock()
		if err != nil {
			if creditStalled(err) {
				// Credit window exhausted: the chunk stays at the buffer
				// front and retries after a pacing delay (the sink's acks
				// replenish credits in the background). The breaker stays
				// closed — this is flow control working, not an outage.
				r.noteSuccess()
				r.stats.CreditStalls++
				mResCreditStalls.Inc()
				r.mu.Unlock()
				r.sleep(r.opts.RetryInterval)
				r.mu.Lock()
				continue
			}
			if rej := rejectedIn(err); rej != nil {
				requeued := r.settleRejected(chunk, drops0, rej)
				if requeued {
					// Pace the rejects' retry so a reading that stays
					// invalid (sensor not registered yet) doesn't spin.
					r.mu.Unlock()
					r.sleep(r.opts.RetryInterval)
					r.mu.Lock()
				}
				continue
			}
			r.noteFailure()
			if !r.breakerOpen() {
				r.mu.Unlock()
				r.sleep(r.opts.RetryInterval)
				r.mu.Lock()
			}
			continue
		}
		r.noteSuccess()
		// Overflow may have dropped some of the chunk's readings from
		// the buffer front while unlocked; only the remainder is still
		// there to pop, and only that remainder is credited as
		// forwarded (the evicted ones were already counted dropped).
		pop := len(chunk) - int(r.frontDrops-drops0)
		if pop > len(r.buf) {
			pop = len(r.buf)
		}
		if pop > 0 {
			r.buf = r.buf[pop:]
			r.stats.Forwarded += uint64(pop)
			mResForwarded.Add(uint64(pop))
		}
		mResPending.Set(float64(len(r.buf)))
	}
}

// settleRejected resolves a drain delivery that the sink rejected for
// part of the chunk: everything else was stored, so the stored
// readings pop as forwarded and only the rejected ones return to the
// buffer front (order preserved) for a paced retry — the self-healing
// the single-reading path always had for a sensor that registers after
// its first readings arrive. Rejects the overflow policy already
// evicted while the lock was released stay dropped. Called with r.mu
// held; reports whether any reading was re-buffered.
func (r *ResilientSink) settleRejected(chunk []model.Reading, drops0 uint64, rej *spatialdb.RejectedError) bool {
	r.noteSuccess() // the breaker tracks transport health, not data validity
	r.stats.Rejected += uint64(len(rej.Indices))
	mResRejected.Add(uint64(len(rej.Indices)))
	d := int(r.frontDrops - drops0)
	pop := len(chunk) - d
	if pop > len(r.buf) {
		pop = len(r.buf)
	}
	if pop <= 0 {
		// The whole chunk was evicted (or Close dropped the buffer)
		// while the delivery was in flight; nothing left to settle.
		return false
	}
	requeue := make([]model.Reading, 0, len(rej.Indices))
	for _, idx := range rej.Indices {
		if idx >= d && idx-d < pop {
			requeue = append(requeue, chunk[idx])
		}
	}
	stored := pop - len(requeue)
	rest := r.buf[pop:]
	if len(requeue) > 0 {
		buf := make([]model.Reading, 0, len(requeue)+len(rest))
		r.buf = append(append(buf, requeue...), rest...)
	} else {
		r.buf = rest
	}
	if stored > 0 {
		r.stats.Forwarded += uint64(stored)
		mResForwarded.Add(uint64(stored))
	}
	mResPending.Set(float64(len(r.buf)))
	return len(requeue) > 0
}

// IngestBatch implements BatchSink: a whole batch enters the pipeline
// at once. The fast path hands it to a batch-capable healthy sink in
// one call; otherwise the readings buffer individually and drain in
// order.
func (r *ResilientSink) IngestBatch(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if bs, ok := r.sink.(BatchSink); ok && len(r.buf) == 0 && !r.breakerOpen() {
		r.mu.Unlock()
		err := bs.IngestBatch(rs)
		if err == nil {
			r.mu.Lock()
			r.noteSuccess()
			r.stats.Forwarded += uint64(len(rs))
			r.mu.Unlock()
			mResForwarded.Add(uint64(len(rs)))
			return nil
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return ErrClosed
		}
		if creditStalled(err) {
			// Nothing was sent; the whole batch buffers for the drain to
			// retry once acks replenish the credit window.
			r.noteSuccess()
			r.stats.CreditStalls++
			mResCreditStalls.Inc()
			for _, reading := range rs {
				r.enqueue(reading)
			}
			r.mu.Unlock()
			return nil
		}
		if rej := rejectedIn(err); rej != nil {
			// The sink stored everything except the rejects; buffering
			// the whole batch again would duplicate the stored rows, so
			// only the rejected readings enter the buffer for a paced
			// retry by the drain.
			r.noteSuccess()
			r.stats.Rejected += uint64(len(rej.Indices))
			mResRejected.Add(uint64(len(rej.Indices)))
			stored := len(rs)
			for _, idx := range rej.Indices {
				if idx >= 0 && idx < len(rs) {
					stored--
					r.enqueue(rs[idx])
				}
			}
			r.stats.Forwarded += uint64(stored)
			r.mu.Unlock()
			mResForwarded.Add(uint64(stored))
			return nil
		}
		r.noteFailure()
	}
	for _, reading := range rs {
		r.enqueue(reading)
	}
	r.mu.Unlock()
	return nil
}

// sleep waits without holding r.mu, waking early on Close.
func (r *ResilientSink) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.stop:
	}
}

// Health classifies the pipeline: Healthy when the breaker is closed
// and nothing is buffered, Degraded while readings are queued or
// recent failures occurred, Down while the breaker quarantines the
// sink (or after Close).
func (r *ResilientSink) Health() core.HealthState {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.closed:
		return core.Down
	case r.breakerOpen():
		return core.Down
	case len(r.buf) > 0 || r.consecFails > 0:
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
	s.Pending = len(r.buf)
	return s
}

// Flush blocks until the buffer drains or the timeout expires,
// reporting whether it drained.
func (r *ResilientSink) Flush(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		r.mu.Lock()
		empty := len(r.buf) == 0
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

// Close stops the drain goroutine; buffered readings still undelivered
// are dropped (counted in Stats). Flush first for a clean handover.
func (r *ResilientSink) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	close(r.stop)
	r.stats.Dropped += uint64(len(r.buf))
	mResDropped.Add(uint64(len(r.buf)))
	r.buf = nil
	mResPending.Set(0)
	r.cond.Signal()
	r.mu.Unlock()
	<-r.done
}
