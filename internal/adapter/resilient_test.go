package adapter

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/spatialdb"
)

// flakySink fails while broken, recording what got through.
type flakySink struct {
	mu     sync.Mutex
	broken bool
	got    []model.Reading
	calls  int
}

func (f *flakySink) IngestBatch(rs []model.Reading) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.broken {
		return errors.New("sink down")
	}
	f.got = append(f.got, rs...)
	return nil
}

func (f *flakySink) Ingest(r model.Reading) error {
	return f.IngestBatch([]model.Reading{r})
}

func (f *flakySink) setBroken(b bool) {
	f.mu.Lock()
	f.broken = b
	f.mu.Unlock()
}

func (f *flakySink) received() []model.Reading {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]model.Reading(nil), f.got...)
}

func TestResilientSinkFastPath(t *testing.T) {
	sink := &flakySink{}
	rs := NewResilientSink(sink, ResilientOptions{})
	defer rs.Close()

	t0 := time.Now()
	for i := 0; i < 5; i++ {
		if err := rs.Ingest(model.Reading{MObjectID: "bob", SensorID: "s", Time: t0}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	if got := len(sink.received()); got != 5 {
		t.Fatalf("forwarded %d readings, want 5", got)
	}
	st := rs.Stats()
	if st.Forwarded != 5 || st.Buffered != 0 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want 5 forwarded, none buffered/dropped", st)
	}
	if h := rs.Health(); h != core.Healthy {
		t.Fatalf("health = %v, want healthy", h)
	}
}

func TestResilientSinkBuffersAndRecovers(t *testing.T) {
	sink := &flakySink{broken: true}
	rs := NewResilientSink(sink, ResilientOptions{
		FailureThreshold: 3,
		Cooldown:         20 * time.Millisecond,
		RetryInterval:    5 * time.Millisecond,
	})
	defer rs.Close()

	t0 := time.Now()
	for i := 0; i < 4; i++ {
		if err := rs.Ingest(model.Reading{MObjectID: "obj", SensorID: "s", Time: t0.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	// Let failures accumulate until the breaker opens.
	deadline := time.Now().Add(2 * time.Second)
	for rs.Health() != core.Down {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; stats %+v", rs.Stats())
		}
		time.Sleep(time.Millisecond)
	}

	sink.setBroken(false)
	if !rs.Flush(2 * time.Second) {
		t.Fatalf("buffer did not drain after recovery; stats %+v", rs.Stats())
	}
	got := sink.received()
	if len(got) != 4 {
		t.Fatalf("delivered %d readings, want 4", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("delivery out of order at %d: %v after %v", i, got[i].Time, got[i-1].Time)
		}
	}
	// Health returns to Healthy once drained and the breaker closes.
	deadline = time.Now().Add(2 * time.Second)
	for rs.Health() != core.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("health stuck at %v after recovery", rs.Health())
		}
		time.Sleep(time.Millisecond)
	}
	if st := rs.Stats(); st.BreakerOpens < 1 {
		t.Fatalf("stats = %+v, want at least one breaker open", st)
	}
}

func TestResilientSinkDropOldest(t *testing.T) {
	sink := &flakySink{broken: true}
	rs := NewResilientSink(sink, ResilientOptions{
		BufferSize:       3,
		FailureThreshold: 1,
		Cooldown:         time.Hour, // keep the breaker open for the whole test
	})
	defer rs.Close()

	t0 := time.Now()
	ids := []string{"a", "b", "c", "d", "e"}
	for _, id := range ids {
		if err := rs.Ingest(model.Reading{MObjectID: id, SensorID: "s", Time: t0}); err != nil {
			t.Fatalf("ingest %s: %v", id, err)
		}
	}
	st := rs.Stats()
	if st.Pending != 3 {
		t.Fatalf("pending = %d, want 3", st.Pending)
	}
	if st.Dropped < 2 {
		t.Fatalf("dropped = %d, want >= 2", st.Dropped)
	}

	if st.Buffered != 5 {
		t.Fatalf("buffered = %d, want 5", st.Buffered)
	}
	if h := rs.Health(); h != core.Down {
		t.Fatalf("health with open breaker = %v, want down", h)
	}
}

func TestResilientSinkClose(t *testing.T) {
	sink := &flakySink{broken: true}
	rs := NewResilientSink(sink, ResilientOptions{
		FailureThreshold: 1,
		Cooldown:         time.Hour,
	})
	if err := rs.Ingest(model.Reading{MObjectID: "x", SensorID: "s", Time: time.Now()}); err != nil {
		t.Fatalf("ingest: %v", err)
	}
	rs.Close()
	if err := rs.Ingest(model.Reading{MObjectID: "y", SensorID: "s", Time: time.Now()}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ingest after close = %v, want ErrClosed", err)
	}
	if h := rs.Health(); h != core.Down {
		t.Fatalf("health after close = %v, want down", h)
	}
	rs.Close() // idempotent
}

// TestRateLimiterPruning exercises the lastSent sweep: a long parade
// of distinct object IDs must not grow the map without bound.
func TestRateLimiterPruning(t *testing.T) {
	sink := &flakySink{}
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	b, err := NewBase("s1", model.RFIDSpec(0.9), sink, nil, Options{
		MinInterval: time.Second,
		Clock:       clock,
	})
	if err != nil {
		t.Fatalf("NewBase: %v", err)
	}
	defer b.Close()

	for i := 0; i < 1000; i++ {
		r := model.Reading{
			MObjectID: fmt.Sprintf("obj-%d", i),
			Location:  glob.CoordinatePoint(glob.GLOB{}, geom.Pt(0, 0)),
			Time:      now,
		}
		if err := b.emit(r); err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
		now = now.Add(2 * time.Second)
	}
	b.mu.Lock()
	size := len(b.lastSent)
	b.mu.Unlock()
	// Retention is 4 MinIntervals and emits are 2s apart, so only the
	// last few entries may survive a sweep.
	if size > 16 {
		t.Fatalf("lastSent grew to %d entries, want pruned (<= 16)", size)
	}
}

// probingSink is a flaky sink whose liveness probe is controlled
// independently of delivery, so tests can hold the breaker in
// half-open purgatory: probes fail (keeping deliveries quarantined)
// while the buffer must stay intact.
type probingSink struct {
	flakySink
	probeBroken bool
	probes      int
}

func (p *probingSink) Probe() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probes++
	if p.probeBroken {
		return errors.New("probe: sink down")
	}
	return nil
}

func (p *probingSink) probeCalls() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.probes
}

func (p *probingSink) setProbeBroken(b bool) {
	p.mu.Lock()
	p.probeBroken = b
	p.mu.Unlock()
}

// TestResilientSinkProbeGuardsBuffer pins the half-open contract: once
// the breaker opens, every cooldown expiry costs one mw.hello-style
// probe, not a data delivery, and a failing probe never drops (or
// delivers) buffered readings. When the probe finally passes, the
// buffer drains in order and nothing was lost.
func TestResilientSinkProbeGuardsBuffer(t *testing.T) {
	sink := &probingSink{flakySink: flakySink{broken: true}, probeBroken: true}
	rs := NewResilientSink(sink, ResilientOptions{
		FailureThreshold: 2,
		Cooldown:         5 * time.Millisecond,
		RetryInterval:    2 * time.Millisecond,
	})
	defer rs.Close()

	t0 := time.Now()
	for i := 0; i < 6; i++ {
		if err := rs.Ingest(model.Reading{MObjectID: "obj", SensorID: "s", Time: t0.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	// Wait for the breaker to open, then note how many delivery
	// attempts it took.
	deadline := time.Now().Add(2 * time.Second)
	for rs.Health() != core.Down {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; stats %+v", rs.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	sink.mu.Lock()
	callsAtOpen := sink.calls
	sink.mu.Unlock()

	// Several cooldown cycles with a failing probe: the sink must see
	// probes but no further delivery attempts, and the buffer must not
	// shrink or drop.
	deadline = time.Now().Add(2 * time.Second)
	for sink.probeCalls() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("probes not attempted; stats %+v", rs.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	sink.mu.Lock()
	callsDuringQuarantine := sink.calls
	sink.mu.Unlock()
	if callsDuringQuarantine != callsAtOpen {
		t.Fatalf("quarantined sink saw %d delivery attempts beyond the %d pre-open ones — probes must carry the trial",
			callsDuringQuarantine-callsAtOpen, callsAtOpen)
	}
	st := rs.Stats()
	if st.Pending != 6 || st.Dropped != 0 {
		t.Fatalf("probe failures disturbed the buffer: %+v (want 6 pending, 0 dropped)", st)
	}
	if st.Probes < 3 || st.ProbeFails < 3 {
		t.Fatalf("probe stats = %+v, want >= 3 probes and failures", st)
	}

	// Probe heals first, then delivery: everything drains, in order.
	sink.setProbeBroken(false)
	sink.setBroken(false)
	if !rs.Flush(2 * time.Second) {
		t.Fatalf("buffer did not drain after probe recovery; stats %+v", rs.Stats())
	}
	got := sink.received()
	if len(got) != 6 {
		t.Fatalf("delivered %d readings, want all 6", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatalf("delivery out of order at %d", i)
		}
	}
}

// TestResilientSinkCloseWakesBackoff: Close returns while the drain
// goroutine sleeps out an open breaker's cooldown.
func TestResilientSinkCloseWakesBackoff(t *testing.T) {
	rs := NewResilientSink(&flakySink{broken: true}, ResilientOptions{
		FailureThreshold: 1,
		Cooldown:         time.Hour,
	})
	if err := rs.Ingest(model.Reading{MObjectID: "a", SensorID: "s", Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	// Give the drain time to reach its hour-long backoff; Close must
	// wake it there.
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		rs.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return while the drain slept out the breaker cooldown")
	}
}

// gateSink fails its first IngestBatch call (a transport error, so the
// readings buffer), then parks the next call until release is closed;
// readings from a sensor not in known are rejected the way
// core.Service rejects them. It records every reading it stored.
type gateSink struct {
	entered chan struct{}
	release chan struct{}

	mu     sync.Mutex
	calls  int
	known  map[string]bool
	stored []model.Reading
}

func newGateSink(sensors ...string) *gateSink {
	g := &gateSink{
		entered: make(chan struct{}),
		release: make(chan struct{}),
		known:   make(map[string]bool),
	}
	for _, s := range sensors {
		g.known[s] = true
	}
	return g
}

func (g *gateSink) IngestBatch(rs []model.Reading) error {
	g.mu.Lock()
	g.calls++
	call := g.calls
	g.mu.Unlock()
	switch call {
	case 1:
		return errors.New("sink down")
	case 2:
		close(g.entered)
		<-g.release
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var rej spatialdb.RejectedError
	for i, r := range rs {
		if !g.known[r.SensorID] {
			rej.Indices = append(rej.Indices, i)
			rej.Errs = append(rej.Errs, spatialdb.ErrUnknownSensor)
			continue
		}
		g.stored = append(g.stored, r)
	}
	if len(rej.Indices) > 0 {
		return &rej
	}
	return nil
}

func (g *gateSink) Ingest(r model.Reading) error {
	return g.IngestBatch([]model.Reading{r})
}

func (g *gateSink) register(sensor string) {
	g.mu.Lock()
	g.known[sensor] = true
	g.mu.Unlock()
}

func (g *gateSink) storedReadings() []model.Reading {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]model.Reading(nil), g.stored...)
}

// TestResilientSinkAccountsForEveryReading: a chunk the drain has
// handed to the sink is neither buffered nor lost. While it is in
// flight, an overflow of the buffer, a Close and a partial rejection
// each leave every stored reading stored once and counted forwarded,
// and Forwarded + Dropped + Pending equal the readings accepted.
func TestResilientSinkAccountsForEveryReading(t *testing.T) {
	// start buffers r0 and r1 through a failed first delivery, then
	// waits until the drain's chunk of both is parked in the sink.
	start := func(t *testing.T, sink *gateSink, opts ResilientOptions, first []model.Reading) *ResilientSink {
		t.Helper()
		opts.FailureThreshold = 100 // only transport failures open it; keep it closed
		opts.RetryInterval = time.Millisecond
		rs := NewResilientSink(sink, opts)
		if err := rs.IngestBatch(first); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sink.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("the drain never delivered the buffered chunk; stats %+v", rs.Stats())
		}
		return rs
	}
	check := func(t *testing.T, rs *ResilientSink, sink *gateSink, accepted int) {
		t.Helper()
		stored := sink.storedReadings()
		seen := make(map[string]bool)
		for _, r := range stored {
			if seen[r.MObjectID] {
				t.Errorf("%s stored twice", r.MObjectID)
			}
			seen[r.MObjectID] = true
		}
		st := rs.Stats()
		if st.Forwarded != uint64(len(stored)) {
			t.Errorf("forwarded = %d, but the sink stored %d readings; stats %+v", st.Forwarded, len(stored), st)
		}
		if got := st.Forwarded + st.Dropped + uint64(st.Pending); got != uint64(accepted) {
			t.Errorf("forwarded %d + dropped %d + pending %d = %d, want the %d accepted",
				st.Forwarded, st.Dropped, st.Pending, got, accepted)
		}
	}
	ingest := func(t *testing.T, rs *ResilientSink, rds ...model.Reading) {
		t.Helper()
		for _, r := range rds {
			if err := rs.Ingest(r); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("overflow", func(t *testing.T) {
		sink := newGateSink("s")
		rs := start(t, sink, ResilientOptions{BufferSize: 2},
			[]model.Reading{sensorReading("s", "r0", 0), sensorReading("s", "r1", 1)})
		defer rs.Close()
		// Three arrivals overflow a 2-deep buffer by one while the chunk
		// r0, r1 is in the sink.
		ingest(t, rs, sensorReading("s", "r2", 2), sensorReading("s", "r3", 3), sensorReading("s", "r4", 4))
		close(sink.release)
		if !rs.Flush(5 * time.Second) {
			t.Fatalf("buffer did not drain; stats %+v", rs.Stats())
		}
		check(t, rs, sink, 5)
		if st := rs.Stats(); st.Forwarded != 4 || st.Dropped != 1 {
			t.Errorf("stats = %+v, want 4 forwarded and only r2 dropped", st)
		}
	})

	t.Run("close", func(t *testing.T) {
		sink := newGateSink("s")
		rs := start(t, sink, ResilientOptions{},
			[]model.Reading{sensorReading("s", "r0", 0), sensorReading("s", "r1", 1)})
		closed := make(chan struct{})
		go func() {
			rs.Close()
			close(closed)
		}()
		// The breaker is closed, so Down means Close has taken effect.
		deadline := time.Now().Add(5 * time.Second)
		for rs.Health() != core.Down {
			if time.Now().After(deadline) {
				t.Fatal("Close never took effect")
			}
			time.Sleep(time.Millisecond)
		}
		close(sink.release)
		select {
		case <-closed:
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not return once the delivery finished")
		}
		check(t, rs, sink, 2)
		if st := rs.Stats(); st.Forwarded != 2 || st.Dropped != 0 {
			t.Errorf("stats = %+v, want both in-flight readings forwarded, none dropped", st)
		}
	})

	t.Run("reject", func(t *testing.T) {
		sink := newGateSink("s")
		rs := start(t, sink, ResilientOptions{},
			[]model.Reading{sensorReading("late", "r0", 0), sensorReading("s", "r1", 1)})
		defer rs.Close()
		ingest(t, rs, sensorReading("s", "r2", 2))
		close(sink.release)
		// r1 and r2 store; r0 is rejected in the chunk and again on a
		// retry, and stays held.
		deadline := time.Now().Add(5 * time.Second)
		for st := rs.Stats(); st.Forwarded < 2 || st.Rejected < 2; st = rs.Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("valid readings never stored or r0 never retried; stats %+v", st)
			}
			time.Sleep(time.Millisecond)
		}
		check(t, rs, sink, 3)
		if st := rs.Stats(); st.Pending != 1 || st.Rejected == 0 {
			t.Errorf("stats = %+v, want r0 pending after its rejection", st)
		}
		sink.register("late")
		if !rs.Flush(5 * time.Second) {
			t.Fatalf("rejected reading never drained; stats %+v", rs.Stats())
		}
		check(t, rs, sink, 3)
	})
}
