package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// TestFusionStateCaching checks the memo discipline at the entry
// level: a repeated query at the same instant reuses the cached entry,
// and each invalidation source — a new reading, a sensor-table change,
// an object-table change, clock movement past the quantum — produces a
// fresh one.
func TestFusionStateCaching(t *testing.T) {
	s, clock := newTestService(t)
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)

	_, e1 := s.fusionState("alice", clock.Now())
	_, e2 := s.fusionState("alice", clock.Now())
	if e1 != e2 {
		t.Error("repeat query at the same instant rebuilt the entry")
	}

	// Within the quantum the entry still serves.
	clock.Advance(10 * time.Millisecond)
	_, e3 := s.fusionState("alice", clock.Now())
	if e3 != e1 {
		t.Error("query within the cache quantum rebuilt the entry")
	}

	// A new reading invalidates.
	ingestAt(t, s, "ubi-1", "alice", 372, 15, clock.Now())
	_, e4 := s.fusionState("alice", clock.Now())
	if e4 == e1 {
		t.Error("cached entry survived a newer reading")
	}

	// A sensor-table change invalidates (calibration affects fusion).
	spec := model.RFIDSpec(0.7)
	if err := s.RegisterSensor("rf-new", spec); err != nil {
		t.Fatal(err)
	}
	_, e5 := s.fusionState("alice", clock.Now())
	if e5 == e4 {
		t.Error("cached entry survived a sensor registration")
	}

	// Past the quantum the entry expires (temporal degradation moves).
	clock.Advance(defaultCacheQuantum + time.Millisecond)
	_, e6 := s.fusionState("alice", clock.Now())
	if e6 == e5 {
		t.Error("cached entry served past the validity quantum")
	}
}

// TestCacheQuantumZero restricts reuse to the exact query instant.
func TestCacheQuantumZero(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now), WithCacheQuantum(0))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Minute
	if err := s.RegisterSensor("ubi-1", spec); err != nil {
		t.Fatal(err)
	}
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)

	_, e1 := s.fusionState("alice", clock.Now())
	_, e2 := s.fusionState("alice", clock.Now())
	if e1 != e2 {
		t.Error("same-instant query missed with quantum 0")
	}
	clock.Advance(time.Millisecond)
	_, e3 := s.fusionState("alice", clock.Now())
	if e3 == e1 {
		t.Error("entry reused at a later instant with quantum 0")
	}
}

// TestLocateObjectCachedAnswerMatchesCold compares the warm answer
// against the cold one field by field: memoization must not change
// results, including the privacy clamp applied after the cache.
func TestLocateObjectCachedAnswerMatchesCold(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)
	cold, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if warm.Rect != cold.Rect || warm.Prob != cold.Prob || warm.Band != cold.Band ||
		warm.Symbolic.String() != cold.Symbolic.String() || !warm.At.Equal(cold.At) {
		t.Errorf("warm answer diverged: cold=%+v warm=%+v", cold, warm)
	}

	// Privacy applies on top of the cached estimate.
	s.SetPrivacy("alice", PrivacyPolicy{MaxGranularity: glob.GranFloor})
	clamped, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if clamped.Symbolic.String() != "CS/Floor3" {
		t.Errorf("privacy clamp skipped on warm path: %s", clamped.Symbolic)
	}
}

// TestIngestBatchMatchesSerialIngest feeds the same readings once as a
// batch and once one at a time into twin services; every fused answer,
// notification and history entry must agree.
func TestIngestBatchMatchesSerialIngest(t *testing.T) {
	build := func(t *testing.T) (*Service, *[]Notification, *sync.Mutex) {
		clock := &testClock{now: t0}
		s, err := New(building.PaperFloor(), WithClock(clock.Now), WithHistory(8))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		spec := model.UbisenseSpec(0.9)
		spec.TTL = time.Minute
		if err := s.RegisterSensor("ubi-1", spec); err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var got []Notification
		handler := func(n Notification) {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
		}
		// Every qualifying reading, and entry-only above one half.
		for _, spec := range []Subscription{
			{Region: glob.MustParse("CS/Floor3/NetLab"), EveryReading: true, Handler: handler},
			{Region: glob.MustParse("CS/Floor3/NetLab"), MinProb: 0.5, Handler: handler},
		} {
			if _, err := s.Subscribe(spec); err != nil {
				t.Fatal(err)
			}
		}
		return s, &got, &mu
	}

	at := func(obj string, i int, x, y float64) model.Reading {
		return model.Reading{
			SensorID:  "ubi-1",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(x, y)),
			Time:      t0.Add(time.Duration(i) * time.Millisecond),
		}
	}
	var readings []model.Reading
	for i := 0; i < 6; i++ {
		readings = append(readings, at(fmt.Sprintf("p%d", i%2), i, float64(300+i*12), 15))
	}
	// p2 enters NetLab and leaves it within the batch: serial ingest
	// notifies on the entering reading, so the batch must too. p3
	// enters, leaves and re-enters: two entries.
	readings = append(readings, at("p2", 6, 370, 15), at("p2", 7, 100, 35),
		at("p3", 8, 370, 15), at("p3", 9, 100, 35), at("p3", 10, 370, 15))

	serial, serialNotes, serialMu := build(t)
	for _, r := range readings {
		if err := serial.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	batched, batchNotes, batchMu := build(t)
	if err := batched.IngestBatch(readings); err != nil {
		t.Fatal(err)
	}

	for _, obj := range []string{"p0", "p1", "p2", "p3"} {
		a, err := serial.LocateObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		b, err := batched.LocateObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		if a.Rect != b.Rect || a.Prob != b.Prob || a.Symbolic.String() != b.Symbolic.String() {
			t.Errorf("%s: serial %+v != batched %+v", obj, a, b)
		}
		// Each history entry is the object as its own reading left it.
		ha, hb := serial.History(obj), batched.History(obj)
		if len(ha) != len(hb) {
			t.Fatalf("%s: serial trail has %d entries, batched %d", obj, len(ha), len(hb))
		}
		for i := range ha {
			if ha[i].Rect != hb[i].Rect || ha[i].Prob != hb[i].Prob {
				t.Errorf("%s: trail entry %d: serial %v (%v), batched %v (%v)",
					obj, i, ha[i].Rect, ha[i].Prob, hb[i].Rect, hb[i].Prob)
			}
		}
	}
	// Delivery is asynchronous: compare only after both notifiers
	// drained. Both services evaluate the readings in the same order and
	// deliver in evaluation order, so the whole sequences must agree.
	serial.Quiesce()
	batched.Quiesce()
	type note struct {
		key  string
		prob float64
	}
	sequence := func(mu *sync.Mutex, notes *[]Notification) []note {
		mu.Lock()
		defer mu.Unlock()
		out := make([]note, len(*notes))
		for i, n := range *notes {
			out[i] = note{n.SubscriptionID + "/" + n.Object, n.Prob}
		}
		return out
	}
	ns, nb := sequence(serialMu, serialNotes), sequence(batchMu, batchNotes)
	if !reflect.DeepEqual(ns, nb) {
		t.Errorf("notifications diverged: serial %v, batched %v", ns, nb)
	}
	entries := 0
	for _, n := range ns {
		if n.key == "sub-2/p3" {
			entries++
		}
	}
	if entries != 2 {
		t.Errorf("p3 entered NetLab twice: %d entry notifications, want 2", entries)
	}
}

// TestCacheNeverServesStaleUnderRace is the freshness contract under
// contention, run with -race in CI: once an insert for an object has
// completed, no later query may be answered from a cache entry built
// before that insert. Writers bump the reading epoch through Ingest
// and IngestBatch while another goroutine churns the sensor table;
// readers snapshot the epoch first and then demand an entry at least
// that new.
func TestCacheNeverServesStaleUnderRace(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("stress-ubi", spec); err != nil {
		t.Fatal(err)
	}
	floor := glob.MustParse("CS/Floor3")
	region := glob.MustParse("CS/Floor3/NetLab")

	const iters = 60
	var wg sync.WaitGroup
	var failed atomic.Bool
	errs := make(chan error, 8*iters)

	mkReading := func(obj string, i int) model.Reading {
		return model.Reading{
			SensorID:  "stress-ubi",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(floor, geom.Pt(float64(300+i*2), 15)),
			Time:      clock.Now().Add(time.Duration(i) * time.Millisecond),
		}
	}

	// Single-reading writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := s.Ingest(mkReading("mover", i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Batch writer.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i += 4 {
			batch := make([]model.Reading, 0, 4)
			for j := i; j < i+4 && j < iters; j++ {
				batch = append(batch, mkReading("pack", j))
			}
			if err := s.IngestBatch(batch); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Sensor churn: registration bumps the generation and must flush
	// every cached estimate.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			churn := model.RFIDSpec(0.7)
			if err := s.RegisterSensor(fmt.Sprintf("churn-%d", i), churn); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers: the epoch observed before the query is a lower bound on
	// the entry that answers it.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(obj string) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				before := s.db.ReadingEpoch(obj)
				_, entry := s.fusionState(obj, clock.Now())
				if entry.epoch < before {
					failed.Store(true)
					errs <- fmt.Errorf("%s: served entry epoch %d older than observed %d",
						obj, entry.epoch, before)
					return
				}
				s.LocateObject(obj) // error ok: may not exist yet
				s.ObjectsInRegion(region, 0.3)
			}
		}([]string{"mover", "pack", "mover"}[w])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if failed.Load() {
		t.Fatal("stale cache entry served after a completed insert")
	}
}

// TestCachePutKeepsNewerEpoch: a region scan on an older snapshot
// fuses the object at the snapshot's epoch and stores that entry on its
// miss path. It must not replace the newer entry a Locate stored since,
// or the next Locate misses.
func TestCachePutKeepsNewerEpoch(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)
	room, err := s.db.ResolveGLOB(glob.MustParse("CS/Floor3/NetLab"))
	if err != nil {
		t.Fatal(err)
	}
	snap := s.db.Snapshot()
	cands := snap.SupportCandidates(room)
	snap.Close()
	ingestAt(t, s, "ubi-1", "alice", 372, 15, t0)
	if _, err := s.LocateObject("alice"); err != nil {
		t.Fatal(err)
	}
	live := s.cache.get("alice")
	if live == nil || !live.hasLoc || live.epoch != s.db.ReadingEpoch("alice") {
		t.Fatalf("Locate cached %+v, want a located entry at the live epoch", live)
	}
	if got := s.objectsInRegionOn(snap, room, 0, t0, cands); len(got) != 1 {
		t.Fatalf("scan of the old snapshot = %v, want alice", got)
	}
	if e := s.cache.get("alice"); e != live {
		t.Fatalf("old-snapshot scan replaced the live entry (epoch %d) with epoch %d", live.epoch, e.epoch)
	}
	hits := mCacheHits.Value()
	if _, err := s.LocateObject("alice"); err != nil {
		t.Fatal(err)
	}
	if mCacheHits.Value() == hits {
		t.Error("Locate after the old-snapshot scan missed the cache")
	}

	// Same epoch: the higher sensor generation stays, a refresh at the
	// same keys replaces.
	var c locateCache
	c.entries = make(map[string]*locEntry)
	newer := &locEntry{epoch: 4, sensorGen: 2}
	c.put("o", newer)
	c.put("o", &locEntry{epoch: 4, sensorGen: 1})
	if c.get("o") != newer {
		t.Error("put replaced an entry with a higher sensor generation")
	}
	refresh := &locEntry{epoch: 4, sensorGen: 2}
	c.put("o", refresh)
	if c.get("o") != refresh {
		t.Error("put kept the old entry over one with equal keys")
	}
	c.put("o", &locEntry{epoch: 3, sensorGen: 9})
	if c.get("o") != refresh {
		t.Error("put replaced an entry with a higher epoch")
	}
}
