package main

import (
	"sync"
	"time"
)

// pacer is an open-loop schedule: operation i is due at
// start + i*interval whether or not earlier operations were slow. A
// sender that is behind does not wait and does not skip, so a stall
// shows up as lateness of every operation it delayed, and every
// operation is timed from its due time, not from when it was sent.
type pacer struct {
	start    time.Time
	interval time.Duration
	i        int
	// lag is how late the generator itself ran: the time from when an
	// operation could start — its due time, or the return of the
	// previous one if that came later — to when it did. Lateness the
	// program causes by answering slowly is not in it; that is in the
	// operation's latency from its due time.
	lag samples

	now   func() time.Time
	sleep func(time.Duration)
}

func newPacer(start time.Time, perSecond float64) *pacer {
	return &pacer{
		start:    start,
		interval: time.Duration(float64(time.Second) / perSecond),
		now:      time.Now,
		sleep:    time.Sleep,
	}
}

// next blocks until the next operation is due (or returns at once when
// already late) and returns its due time.
func (p *pacer) next() time.Time {
	due := p.start.Add(time.Duration(p.i) * p.interval)
	p.i++
	ready := p.now()
	if wait := due.Sub(ready); wait > 0 {
		p.sleep(wait)
		ready = due
	}
	p.lag.add(p.now().Sub(ready))
	return due
}

// probeTimeout is how long a probe may wait for its notification
// before it counts as failed.
const probeTimeout = 5 * time.Second

// probeMatcher pairs each probe reading with the notification it
// provokes. Senders call sent before the reading leaves; the
// subscriber's handler calls notified with the service's evaluation
// time carried by the notification.
//
// Matching relies on two facts. Per-subscription delivery is FIFO, so
// a notification can only belong to the oldest probe still waiting or
// a later one. And every sender waits for the daemon's acknowledgement
// (which follows trigger evaluation) before its next send, so probe
// k's evaluation time always precedes probe k+1's send time. A
// notification therefore belongs to the newest waiting probe sent at
// or before its evaluation time, and any older probe still waiting has
// lost its notification: it is counted as failed, and later samples
// are not shifted onto it.
type probeMatcher struct {
	mu       sync.Mutex
	waiting  map[string][]probe
	lost     int // probes whose notification never came
	spurious int // notifications no waiting probe explains
	latency  map[string]*samples
}

type probe struct {
	due, sentAt time.Time
}

func newProbeMatcher() *probeMatcher {
	return &probeMatcher{
		waiting: make(map[string][]probe),
		latency: make(map[string]*samples),
	}
}

// sent registers a probe for object, due at due and leaving now.
func (m *probeMatcher) sent(object string, due, now time.Time) {
	m.mu.Lock()
	m.waiting[object] = append(m.waiting[object], probe{due: due, sentAt: now})
	m.mu.Unlock()
}

// notified matches a notification for object, evaluated by the service
// at evalAt and received at recvAt; kind ("stream" or "rpc") selects
// the latency series. It returns the matched probe's due time.
func (m *probeMatcher) notified(kind, object string, evalAt, recvAt time.Time) (due time.Time, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.waiting[object]
	k := -1
	for i := len(q) - 1; i >= 0; i-- {
		if !q[i].sentAt.After(evalAt) {
			k = i
			break
		}
	}
	if k < 0 {
		m.spurious++
		return time.Time{}, false
	}
	m.lost += k
	s := m.latency[kind]
	if s == nil {
		s = &samples{}
		m.latency[kind] = s
	}
	s.add(recvAt.Sub(q[k].due))
	m.waiting[object] = q[k+1:]
	return q[k].due, true
}

// drain waits until no probe is waiting or the oldest has timed out,
// then counts whatever is left as lost.
func (m *probeMatcher) drain() {
	deadline := time.Now().Add(probeTimeout)
	for time.Now().Before(deadline) {
		if m.outstanding() == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	m.mu.Lock()
	for obj, q := range m.waiting {
		m.lost += len(q)
		delete(m.waiting, obj)
	}
	m.mu.Unlock()
}

func (m *probeMatcher) outstanding() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, q := range m.waiting {
		n += len(q)
	}
	return n
}

// take removes and returns the latency series of one kind (nil when no
// probe of that kind was matched).
func (m *probeMatcher) take(kind string) *samples {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.latency[kind]
	delete(m.latency, kind)
	if s == nil {
		s = &samples{}
	}
	return s
}
