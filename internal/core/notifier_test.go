package core

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// TestNotifierPreservesPerSubscriptionOrder is the notifier's ordering
// contract as subscribers see it: the notifications of any ONE
// subscription arrive in the order their triggering readings were
// evaluated, with several subscriptions sharing the queue.
func TestNotifierPreservesPerSubscriptionOrder(t *testing.T) {
	s, _ := newTestService(t)

	const subs = 8
	const steps = 40
	type rec struct {
		mu  sync.Mutex
		ats []time.Time
	}
	recs := make([]rec, subs)
	var wg sync.WaitGroup
	wg.Add(subs * steps)
	for i := 0; i < subs; i++ {
		i := i
		_, err := s.Subscribe(Subscription{
			Region:       glob.MustParse("CS/Floor3/NetLab"),
			EveryReading: true,
			Handler: func(n Notification) {
				recs[i].mu.Lock()
				recs[i].ats = append(recs[i].ats, n.At)
				recs[i].mu.Unlock()
				wg.Done()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < steps; j++ {
		ingestAt(t, s, "ubi-1", "walker", 370, 15, t0.Add(time.Duration(j)*time.Second))
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("notifications did not all arrive")
	}
	for i := range recs {
		recs[i].mu.Lock()
		if len(recs[i].ats) != steps {
			t.Fatalf("sub %d received %d notifications, want %d", i, len(recs[i].ats), steps)
		}
		for j := 1; j < len(recs[i].ats); j++ {
			if recs[i].ats[j].Before(recs[i].ats[j-1]) {
				t.Fatalf("sub %d: notification %d (at %v) arrived before %d (at %v)",
					i, j, recs[i].ats[j], j-1, recs[i].ats[j-1])
			}
		}
		recs[i].mu.Unlock()
	}
}

// TestNotifierDeliversInEvaluationOrder: one object, two overlapping
// every-reading subscriptions (a room and its floor) and batches of
// readings in and out of the room. The notifications of both
// subscriptions, taken together, arrive exactly in the order the
// service evaluated them: reading by reading, and within a reading in
// the order its insert matched the triggers.
func TestNotifierDeliversInEvaluationOrder(t *testing.T) {
	s, clock := newTestService(t)
	type note struct {
		sub string
		at  time.Time
	}
	var mu sync.Mutex
	var got []note
	record := func(n Notification) {
		mu.Lock()
		got = append(got, note{n.SubscriptionID, n.At})
		mu.Unlock()
	}
	for _, region := range []string{"CS/Floor3/NetLab", "CS/Floor3"} {
		if _, err := s.Subscribe(Subscription{
			Region:       glob.MustParse(region),
			EveryReading: true,
			Handler:      record,
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Every matched trigger of a reading notifies (MinProb 0 holds
	// wherever the object has live readings), so the evaluation order is
	// each stored reading's matched triggers, reading by reading. The
	// clock moves per batch, so At tells the batches apart.
	var want []note
	dispatch := func(stored []spatialdb.StoredReading) {
		for _, ev := range stored {
			for _, id := range ev.Triggers {
				want = append(want, note{id, clock.Now()})
			}
		}
		s.dispatchStored(stored)
	}
	spots := []geom.Point{{X: 370, Y: 15}, {X: 100, Y: 37}, {X: 372, Y: 16}, {X: 250, Y: 37}}
	for b := 0; b < 10; b++ {
		clock.Advance(time.Second)
		batch := make([]model.Reading, 1+b%4)
		for i := range batch {
			batch[i] = model.Reading{
				SensorID:  "ubi-1",
				MObjectID: "walker",
				Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), spots[(b+i)%len(spots)]),
				Time:      clock.Now().Add(time.Duration(i-len(batch)) * time.Millisecond),
			}
		}
		if _, err := s.db.InsertReadings(batch, dispatch); err != nil {
			t.Fatal(err)
		}
	}
	s.Quiesce()

	rooms := 0
	for _, n := range want {
		if n.sub == "sub-1" {
			rooms++
		}
	}
	if rooms == 0 || rooms == len(want) {
		t.Fatalf("%d of %d evaluations were the room's: the readings did not mix room and floor", rooms, len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %d notifications out of evaluation order\n got  %v\n want %v", len(got), got, want)
	}
}

// TestCloseDrainsQueueAndCountsDrops fills the one notification queue
// behind a blocked handler, then closes the service: Health reports the
// full 1024-slot queue as degraded, a notification evaluated after Close
// began is dropped and counted rather than queued, and Close returns
// only after every queued notification has been delivered.
func TestCloseDrainsQueueAndCountsDrops(t *testing.T) {
	s, _ := newTestService(t)
	gate := make(chan struct{})
	var mu sync.Mutex
	delivered := 0
	if _, err := s.Subscribe(Subscription{
		Region:       glob.MustParse("CS/Floor3/NetLab"),
		EveryReading: true,
		Handler: func(Notification) {
			<-gate
			mu.Lock()
			delivered++
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	// The first notification blocks the notifier in its handler; the
	// rest fill the queue exactly.
	queued := notifyQueueCap + 1
	for j := 0; j < queued; j++ {
		ingestAt(t, s, "ubi-1", "walker", 370, 15, t0.Add(time.Duration(j)*time.Millisecond))
	}
	if h := s.Health(); h.QueueCap != notifyQueueCap || h.QueueDepth != notifyQueueCap || h.State != Degraded {
		t.Fatalf("health with a full queue: depth %d, cap %d, %v; want %d, %d, degraded",
			h.QueueDepth, h.QueueCap, h.State, notifyQueueCap, notifyQueueCap)
	}

	drops := obs.Default().Counter("core_notify_drops_total")
	before := drops.Value()
	late := make(chan error, 1)
	go func() {
		late <- s.Ingest(model.Reading{
			SensorID:  "ubi-1",
			MObjectID: "walker",
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(370, 15)),
			Time:      t0.Add(time.Hour),
		})
	}()
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	// The late reading's notification is blocked on the full queue until
	// Close stops the notifier; it must then be dropped, not queued.
	deadline := time.Now().Add(5 * time.Second)
	for drops.Value() == before {
		if time.Now().After(deadline) {
			t.Fatal("the notification evaluated during Close was never dropped")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-late; err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with the queue undelivered")
	default:
	}
	close(gate)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the handler was released")
	}
	mu.Lock()
	defer mu.Unlock()
	if delivered != queued {
		t.Errorf("Close returned after %d of %d queued notifications were delivered", delivered, queued)
	}
	if h := s.Health(); h.State != Down || h.QueueDepth != 0 {
		t.Errorf("health after Close: %v with depth %d, want down and empty", h.State, h.QueueDepth)
	}
	s.Quiesce() // returns at once on a closed service
}

// TestCoreMetricNamesStable pins the core-layer registry names that
// mwctl stats and the dashboards read: the heatmap latency histogram
// (observed on success, error, and empty paths alike), the pre-filter
// selectivity counters, and the notification queue's depth gauge and
// drop counter.
func TestCoreMetricNamesStable(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "walker", 370, 15, t0)
	if _, err := s.OccupancyHeatmap(glob.MustParse("CS/Floor3"), 2, 2); err != nil {
		t.Fatal(err)
	}
	// The error path must be observed too.
	errBefore := obs.Default().Histogram("core_heatmap_us").Count()
	if _, err := s.OccupancyHeatmap(glob.MustParse("CS/Floor3"), 0, 2); err == nil {
		t.Fatal("rows=0 accepted")
	}
	if after := obs.Default().Histogram("core_heatmap_us").Count(); after != errBefore+1 {
		t.Errorf("core_heatmap_us count %d -> %d across an error call, want +1", errBefore, after)
	}

	snap := obs.Default().Snapshot()
	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, h := range snap.Histograms {
		names[h.Name] = true
	}
	for _, want := range []string{
		"core_heatmap_us",
		"core_heatmap_candidates",
		"core_heatmap_culled",
		"core_notify_queue_depth",
		"core_notify_drops_total",
	} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if obs.Default().Counter("core_heatmap_candidates").Value() == 0 {
		t.Error("core_heatmap_candidates never moved")
	}
}

// TestCloseAccountsForEveryNotification: firings racing Close, and
// firings after it, are each either delivered or counted as dropped.
// None may be counted as notified (Health.Notifications) and then left
// undelivered in the queue after the notifier's final drain.
func TestCloseAccountsForEveryNotification(t *testing.T) {
	s, _ := newTestService(t)
	var delivered atomic.Uint64
	started := make(chan struct{})
	var once sync.Once
	if _, err := s.Subscribe(Subscription{
		Region:       glob.MustParse("CS/Floor3/NetLab"),
		EveryReading: true,
		Handler: func(Notification) {
			delivered.Add(1)
			once.Do(func() { close(started) })
		},
	}); err != nil {
		t.Fatal(err)
	}
	dropped0 := mNotifyDrops.Value()
	fire := func(obj string, j int) error {
		return s.Ingest(model.Reading{
			SensorID:  "ubi-1",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(370, 15)),
			Time:      t0.Add(time.Duration(j) * time.Second),
		})
	}
	const writers, racing, after = 4, 50, 100
	var wg sync.WaitGroup
	wg.Add(writers)
	for w := 0; w < writers; w++ {
		obj := "walker-" + string(rune('a'+w))
		go func() {
			defer wg.Done()
			for j := 0; j < racing; j++ {
				if err := fire(obj, j); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	<-started
	s.Close()
	wg.Wait()
	for j := 0; j < after; j++ {
		if err := fire("walker-z", j); err != nil {
			t.Fatal(err)
		}
	}
	notified := s.Health().Notifications
	dropped := mNotifyDrops.Value() - dropped0
	if want := uint64(writers*racing + after); notified+dropped != want {
		t.Fatalf("notified %d + dropped %d, want %d firings", notified, dropped, want)
	}
	if got := delivered.Load(); notified != got {
		t.Errorf("notified %d, delivered %d, dropped %d: %d notifications were counted and lost",
			notified, got, dropped, notified-got)
	}
}
