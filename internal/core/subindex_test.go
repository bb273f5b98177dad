package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// heldScan is the held lookup as it was before the held index — every
// subscription examined for every stored reading — kept as the
// reference the held index is compared against. Caller holds s.mu.
func (s *Service) heldScan(obj string) []*subscription {
	var out []*subscription
	for id, sub := range s.subs {
		if sub.spec.Object != "" && sub.spec.Object != obj {
			continue
		}
		if s.lastTrue[id][obj] {
			out = append(out, sub)
		}
	}
	return out
}

// checkHeldIndex asserts held ≡ {(sub, obj) : lastTrue[sub][obj]} with
// no duplicate, dangling or empty entries.
func checkHeldIndex(t *testing.T, s *Service, step int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	want := 0
	for id, state := range s.lastTrue {
		for obj, holds := range state {
			if !holds {
				continue
			}
			want++
			n := 0
			for _, h := range s.held[obj] {
				if h == s.subs[id] {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("step %d: lastTrue[%s][%s] holds but the index lists it %d times", step, id, obj, n)
			}
		}
	}
	got := 0
	for obj, hs := range s.held {
		if len(hs) == 0 {
			t.Fatalf("step %d: empty held list kept for %s", step, obj)
		}
		got += len(hs)
	}
	if got != want {
		t.Fatalf("step %d: index holds %d entries, lastTrue has %d true", step, got, want)
	}
}

// oracleTwin is one of the two services the oracle test drives in
// lockstep, with everything its handlers received.
type oracleTwin struct {
	svc *Service
	mu  sync.Mutex
	log []Notification
}

// drain waits for delivery and returns the notifications since the last
// drain, in delivery order: stored readings are evaluated in reading
// order and the one queue delivers in evaluation order, so the twins'
// sequences must match exactly, across objects too.
func (tw *oracleTwin) drain() []Notification {
	tw.svc.Quiesce()
	tw.mu.Lock()
	defer tw.mu.Unlock()
	out := tw.log
	tw.log = nil
	return out
}

// TestHeldIndexMatchesSubscriptionScan drives random subscribe /
// unsubscribe / ingest / batch-ingest sequences through two services
// that differ only in how observeStored finds an object's held
// subscriptions — the held index against the scan of every
// subscription — and demands identical notification sequences,
// identical condition state, and a consistent index after every step.
func TestHeldIndexMatchesSubscriptionScan(t *testing.T) {
	regions := []string{"CS/Floor3/3105", "CS/Floor3/NetLab", "CS/Floor3/HCILab",
		"CS/Floor3/MainCorridor", "CS/Floor3/LabCorridor", "CS/Floor3"}
	objects := []string{"ann", "bob", "cy", "dee"}
	// Room centres, a far corridor spot, and two spots within RFID
	// range of a neighbouring room.
	spots := []geom.Point{{X: 335, Y: 15}, {X: 370, Y: 15}, {X: 395, Y: 15}, {X: 250, Y: 37},
		{X: 355, Y: 15}, {X: 100, Y: 37}, {X: 361, Y: 15}, {X: 379, Y: 28}}
	floor := glob.MustParse("CS/Floor3")

	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := &testClock{now: t0}
			build := func(indexed bool) *oracleTwin {
				s, err := New(building.PaperFloor(), WithClock(clock.Now))
				if err != nil {
					t.Fatal(err)
				}
				if !indexed {
					s.heldOf = s.heldScan
				}
				t.Cleanup(s.Close)
				ubi := model.UbisenseSpec(0.9)
				ubi.TTL = time.Minute
				if err := s.RegisterSensor("ubi-1", ubi); err != nil {
					t.Fatal(err)
				}
				if err := s.RegisterSensor("rf-1", model.RFIDSpec(0.8)); err != nil {
					t.Fatal(err)
				}
				return &oracleTwin{svc: s}
			}
			twins := []*oracleTwin{build(true), build(false)}

			var live []string // subscription IDs, identical in both twins
			notified, exits := 0, 0
			heldEntries := func() int {
				n := 0
				for _, hs := range twins[0].svc.held {
					n += len(hs)
				}
				return n
			}
			reading := func() model.Reading {
				return model.Reading{
					SensorID:  []string{"ubi-1", "ubi-1", "rf-1"}[rng.Intn(3)],
					MObjectID: objects[rng.Intn(len(objects))],
					Location:  glob.CoordinatePoint(floor, spots[rng.Intn(len(spots))]),
					Time:      clock.Now(),
				}
			}
			for step := 0; step < 400; step++ {
				clock.Advance(10 * time.Millisecond)
				heldBefore, unsubscribed := heldEntries(), false
				switch op := rng.Intn(10); {
				case op == 0 && len(live) < 14:
					spec := Subscription{
						Region:       glob.MustParse(regions[rng.Intn(len(regions))]),
						MinProb:      []float64{0, 0.3, 0.6}[rng.Intn(3)],
						MinBand:      []fusion.Band{0, 0, fusion.BandMedium}[rng.Intn(3)],
						EveryReading: rng.Intn(3) == 0,
					}
					if rng.Intn(2) == 0 {
						spec.Object = objects[rng.Intn(len(objects))]
					}
					var ids [2]string
					for i, tw := range twins {
						tw := tw
						spec.Handler = func(n Notification) {
							tw.mu.Lock()
							tw.log = append(tw.log, n)
							tw.mu.Unlock()
						}
						id, err := tw.svc.Subscribe(spec)
						if err != nil {
							t.Fatal(err)
						}
						ids[i] = id
					}
					if ids[0] != ids[1] {
						t.Fatalf("step %d: twins diverged on subscription id: %v", step, ids)
					}
					live = append(live, ids[0])
				case op == 1 && len(live) > 0:
					k := rng.Intn(len(live))
					for _, tw := range twins {
						if err := tw.svc.Unsubscribe(live[k]); err != nil {
							t.Fatal(err)
						}
					}
					live = append(live[:k], live[k+1:]...)
					unsubscribed = true
				case op < 5:
					batch := make([]model.Reading, 2+rng.Intn(7))
					for i := range batch {
						batch[i] = reading()
					}
					for _, tw := range twins {
						if err := tw.svc.IngestBatch(batch); err != nil {
							t.Fatal(err)
						}
					}
				default:
					r := reading()
					for _, tw := range twins {
						if err := tw.svc.Ingest(r); err != nil {
							t.Fatal(err)
						}
					}
				}
				got, want := twins[0].drain(), twins[1].drain()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: notifications diverged\n index %+v\n scan  %+v", step, got, want)
				}
				notified += len(got)
				for _, tw := range twins {
					checkHeldIndex(t, tw.svc, step)
				}
				if !unsubscribed && heldEntries() < heldBefore {
					exits++
				}
				if a, b := twins[0].svc.lastTrue, twins[1].svc.lastTrue; !reflect.DeepEqual(a, b) {
					t.Fatalf("step %d: condition state diverged\n index %v\n scan  %v", step, a, b)
				}
			}
			if notified == 0 || exits == 0 {
				t.Errorf("%d notifications, %d steps with an exit: the sequence exercised nothing", notified, exits)
			}
		})
	}
}

// TestExitRecheckHonoursMinBand: the exit recheck applies the whole
// condition, band included. Fused mass is positive everywhere, so a
// banded subscription with no MinProb used to be rechecked as "still
// inside" wherever the object went, and its next entry was swallowed.
// The same positivity is the MinProb 0 trap (Subscription.MinProb): with
// no threshold and no band the condition holds while the object has
// live readings anywhere, so it never exits and never re-notifies.
func TestExitRecheckHonoursMinBand(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Subscription
		// held after the fix down the corridor; notifications after the
		// return to the lab.
		held, notified int
	}{
		{name: "MinBand", spec: Subscription{MinBand: fusion.BandMedium}, held: 0, notified: 2},
		{name: "MinProbZeroNeverExits", spec: Subscription{}, held: 1, notified: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newTestService(t)
			var mu sync.Mutex
			got := 0
			spec := tc.spec
			spec.Region = glob.MustParse("CS/Floor3/NetLab")
			spec.Handler = func(Notification) {
				mu.Lock()
				got++
				mu.Unlock()
			}
			if _, err := s.Subscribe(spec); err != nil {
				t.Fatal(err)
			}
			count := func() int {
				s.Quiesce()
				mu.Lock()
				defer mu.Unlock()
				return got
			}
			netLab, err := s.DB().ResolveGLOB(glob.MustParse("CS/Floor3/NetLab"))
			if err != nil {
				t.Fatal(err)
			}

			ingestAt(t, s, "ubi-1", "mia", 370, 15, t0)
			if n := count(); n != 1 {
				t.Fatalf("entry: %d notifications, want 1", n)
			}
			// A fix far down the corridor: P(NetLab) is tiny but positive.
			ingestAt(t, s, "ubi-1", "mia", 100, 37, t0.Add(time.Second))
			if p, band, err := s.probInRect("mia", netLab); err != nil || p <= 0 || band >= fusion.BandMedium {
				t.Fatalf("scenario broken: P(NetLab) = %v band %v err %v, want positive and below medium", p, band, err)
			}
			s.mu.Lock()
			held := len(s.held["mia"])
			s.mu.Unlock()
			if held != tc.held {
				t.Fatalf("after leaving: %d subscriptions held, want %d", held, tc.held)
			}
			// Back in the lab: an entry only if the recheck saw the exit.
			ingestAt(t, s, "ubi-1", "mia", 371, 16, t0.Add(2*time.Second))
			if n := count(); n != tc.notified {
				t.Fatalf("return: %d notifications, want %d", n, tc.notified)
			}
		})
	}
}

// TestReturnAfterExpiryIsAnEntry: an object whose readings all lapsed
// — by TTL or by a forced expiry such as a badge-out — is nowhere, so
// its next reading inside a subscribed region is an entry. The stale
// held state is released by that reading, which then holds the
// subscription afresh.
func TestReturnAfterExpiryIsAnEntry(t *testing.T) {
	for _, tc := range []struct {
		name   string
		expire func(s *Service, clock *testClock)
	}{
		{name: "TTLLapse", expire: func(_ *Service, clock *testClock) {
			clock.Advance(10 * time.Minute) // ubi-1's TTL is one minute
		}},
		{name: "ForcedExpiry", expire: func(s *Service, clock *testClock) {
			clock.Advance(time.Second)
			s.DB().ExpireReadings(clock.Now(), func(r model.Reading) bool { return r.MObjectID == "ivan" })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, clock := newTestService(t)
			var mu sync.Mutex
			got := 0
			id, err := s.Subscribe(Subscription{
				Region:  glob.MustParse("CS/Floor3/NetLab"),
				MinProb: 0.5,
				Handler: func(Notification) {
					mu.Lock()
					got++
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			count := func() int {
				s.Quiesce()
				mu.Lock()
				defer mu.Unlock()
				return got
			}
			ingestAt(t, s, "ubi-1", "ivan", 370, 15, clock.Now())
			if n := count(); n != 1 {
				t.Fatalf("entry: %d notifications, want 1", n)
			}
			tc.expire(s, clock)
			if _, err := s.LocateObject("ivan"); !errors.Is(err, ErrUnknownObject) {
				t.Fatalf("after expiry: LocateObject err = %v, want ErrUnknownObject", err)
			}
			ingestAt(t, s, "ubi-1", "ivan", 370, 15, clock.Now())
			if n := count(); n != 2 {
				t.Fatalf("return: %d notifications, want 2", n)
			}
			checkHeldIndex(t, s, 0)
			s.mu.Lock()
			defer s.mu.Unlock()
			if hs := s.held["ivan"]; len(hs) != 1 || hs[0].id != id {
				t.Fatalf("after the return: held %v, want only %s", hs, id)
			}
		})
	}
}

// TestRingTrimmedLiveRowIsNoReturn: whether the object was present
// before a reading is judged on all of its rows as they stood before
// the append, the oldest one too when the ring trim drops it on that
// very append. A long-TTL row followed by a full ring of short-TTL
// rows that have since expired is still a live object, so the next fix
// in the region is no entry.
func TestRingTrimmedLiveRowIsNoReturn(t *testing.T) {
	s, clock := newTestService(t)
	netlab := glob.MustParse("CS/Floor3/NetLab")
	if err := s.RegisterSensor("desk-netlab", model.DesktopLoginSpec(netlab, time.Hour)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := 0
	id, err := s.Subscribe(Subscription{
		Region:  netlab,
		MinProb: 0.5,
		Handler: func(Notification) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		s.Quiesce()
		mu.Lock()
		defer mu.Unlock()
		return got
	}
	err = s.Ingest(model.Reading{SensorID: "desk-netlab", MObjectID: "judy", Location: netlab, Time: clock.Now()})
	if err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("login: %d notifications, want 1", n)
	}
	// The database keeps 64 rows per object: the login row and 63
	// one-minute fixes fill it, and the next fix trims the login row.
	for i := 0; i < 63; i++ {
		ingestAt(t, s, "ubi-1", "judy", 370, 15, clock.Now().Add(time.Duration(i)*time.Millisecond))
	}
	clock.Advance(10 * time.Minute) // the fixes lapse; the session does not
	ingestAt(t, s, "ubi-1", "judy", 370, 15, clock.Now())
	if n := count(); n != 1 {
		t.Fatalf("fix after the trim: %d notifications, want 1", n)
	}
	checkHeldIndex(t, s, 0)
	s.mu.Lock()
	defer s.mu.Unlock()
	if hs := s.held["judy"]; len(hs) != 1 || hs[0].id != id {
		t.Fatalf("after the trim: held %v, want only %s", hs, id)
	}
}

// TestQuiesceWaitsForDelivery: Quiesce returns only after handlers
// enqueued before it have run, and does not hang on a closed service.
func TestQuiesceWaitsForDelivery(t *testing.T) {
	s, _ := newTestService(t)
	var mu sync.Mutex
	delivered := 0
	const subs = 8
	for i := 0; i < subs; i++ {
		_, err := s.Subscribe(Subscription{
			Region:       glob.MustParse("CS/Floor3/NetLab"),
			EveryReading: true,
			Handler: func(Notification) {
				time.Sleep(time.Millisecond) // delivery lags the ingest call
				mu.Lock()
				delivered++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 5; j++ {
		ingestAt(t, s, "ubi-1", "walker", 370, 15, t0.Add(time.Duration(j)*time.Second))
		s.Quiesce()
		mu.Lock()
		n := delivered
		mu.Unlock()
		if n != subs*(j+1) {
			t.Fatalf("after reading %d: %d notifications delivered, want %d", j, n, subs*(j+1))
		}
	}
	s.Close()
	s.Quiesce()
}
