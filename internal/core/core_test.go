package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/rcc"
	"middlewhere/internal/rules"
	"middlewhere/internal/topo"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

// testClock is a controllable clock.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// newTestService builds a service over the paper floor with a Ubisense
// sensor and a card reader on room 3105.
func newTestService(t *testing.T) (*Service, *testClock) {
	t.Helper()
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ubi := model.UbisenseSpec(0.9)
	ubi.TTL = time.Minute // keep readings alive across test steps
	if err := s.RegisterSensor("ubi-1", ubi); err != nil {
		t.Fatal(err)
	}
	rfid := model.RFIDSpec(0.8)
	if err := s.RegisterSensor("rf-1", rfid); err != nil {
		t.Fatal(err)
	}
	card := model.CardReaderSpec(glob.MustParse("CS/Floor3/3105"))
	if err := s.RegisterSensor("card-3105", card); err != nil {
		t.Fatal(err)
	}
	return s, clock
}

// ingestAt inserts a coordinate reading at floor coordinates (x, y).
func ingestAt(t *testing.T, s *Service, sensor, obj string, x, y float64, at time.Time) {
	t.Helper()
	err := s.Ingest(model.Reading{
		SensorID:  sensor,
		MObjectID: obj,
		Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(x, y)),
		Time:      at,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLocateObjectSingleSensor(t *testing.T) {
	s, _ := newTestService(t)
	// Alice's tag is in the NetLab.
	ingestAt(t, s, "ubi-1", "alice", 370, 15, t0)
	loc, err := s.LocateObject("alice")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("symbolic = %s", loc.Symbolic)
	}
	if loc.Prob <= 0.5 {
		t.Errorf("prob = %v, want confident", loc.Prob)
	}
	if !geom.R(360, 0, 380, 30).ContainsRect(loc.Rect) {
		t.Errorf("rect %v outside NetLab", loc.Rect)
	}
	if len(loc.Support) != 1 || loc.Support[0] != "ubi-1" {
		t.Errorf("support = %v", loc.Support)
	}
	if loc.Band < fusion.BandMedium {
		t.Errorf("band = %v", loc.Band)
	}
	if loc.Coordinate.IsZero() {
		t.Error("coordinate GLOB missing")
	}
}

func TestLocateObjectFusesTwoSensors(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "bob", 340, 15, t0)
	single, err := s.LocateObject("bob")
	if err != nil {
		t.Fatal(err)
	}
	// An RFID badge agrees (bigger rectangle around the same spot).
	ingestAt(t, s, "rf-1", "bob", 340, 15, t0)
	both, err := s.LocateObject("bob")
	if err != nil {
		t.Fatal(err)
	}
	if both.Prob <= single.Prob {
		t.Errorf("fusion should reinforce: %v -> %v", single.Prob, both.Prob)
	}
	if len(both.Support) != 2 {
		t.Errorf("support = %v", both.Support)
	}
	if both.Symbolic.String() != "CS/Floor3/3105" {
		t.Errorf("symbolic = %s", both.Symbolic)
	}
}

func TestLocateObjectConflictDiscardsStale(t *testing.T) {
	s, _ := newTestService(t)
	// The badge sits in 3105 (stationary), while the moving Ubisense
	// tag walks the corridor.
	ingestAt(t, s, "rf-1", "carol", 340, 15, t0)
	ingestAt(t, s, "ubi-1", "carol", 100, 35, t0)
	ingestAt(t, s, "ubi-1", "carol", 110, 35, t0.Add(time.Second)) // moving now
	loc, err := s.LocateObject("carol")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3/MainCorridor" {
		t.Errorf("symbolic = %s (rect %v)", loc.Symbolic, loc.Rect)
	}
	if len(loc.Discarded) == 0 {
		t.Error("conflicting badge reading should be discarded")
	}
}

func TestLocateUnknownObject(t *testing.T) {
	s, _ := newTestService(t)
	if _, err := s.LocateObject("nobody"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("err = %v", err)
	}
}

func TestTTLExpiryLosesObject(t *testing.T) {
	s, clock := newTestService(t)
	ingestAt(t, s, "ubi-1", "dave", 370, 15, t0)
	if _, err := s.LocateObject("dave"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute) // past the 1-minute TTL
	if _, err := s.LocateObject("dave"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("expired readings: err = %v", err)
	}
}

func TestTemporalDegradationLowersProbability(t *testing.T) {
	s, clock := newTestService(t)
	ingestAt(t, s, "ubi-1", "erin", 370, 15, t0)
	fresh, err := s.LocateObject("erin")
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(40 * time.Second) // several Ubisense half-lives
	stale, err := s.LocateObject("erin")
	if err != nil {
		t.Fatal(err)
	}
	if stale.Prob >= fresh.Prob {
		t.Errorf("tdf should lower probability: %v -> %v", fresh.Prob, stale.Prob)
	}
}

func TestProbInRegionQueries(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "fred", 370, 15, t0)
	// Symbolic region query.
	p, band, err := s.ProbInRegion("fred", glob.MustParse("CS/Floor3/NetLab"))
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.5 || band < fusion.BandMedium {
		t.Errorf("NetLab prob = %v band = %v", p, band)
	}
	// A different room scores lower.
	pOther, _, err := s.ProbInRegion("fred", glob.MustParse("CS/Floor3/HCILab"))
	if err != nil {
		t.Fatal(err)
	}
	if pOther >= p {
		t.Errorf("HCILab %v should score below NetLab %v", pOther, p)
	}
	// Coordinate region query.
	pCoord, _, err := s.ProbInRegion("fred", glob.MustParse("CS/Floor3/(365,10),(375,10),(375,20),(365,20)"))
	if err != nil {
		t.Fatal(err)
	}
	if pCoord <= 0 {
		t.Errorf("coordinate region prob = %v", pCoord)
	}
	// Unknown region.
	if _, _, err := s.ProbInRegion("fred", glob.MustParse("CS/Floor3/void")); err == nil {
		t.Error("unknown region should error")
	}
	// Unknown object.
	if _, _, err := s.ProbInRegion("ghost", glob.MustParse("CS/Floor3/NetLab")); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object err = %v", err)
	}
}

func TestObjectsInRegion(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "gail", 370, 15, t0)
	ingestAt(t, s, "rf-1", "hank", 100, 35, t0)
	got, err := s.ObjectsInRegion(glob.MustParse("CS/Floor3/NetLab"), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["gail"]; !ok {
		t.Errorf("gail missing from NetLab: %v", got)
	}
	if _, ok := got["hank"]; ok {
		t.Errorf("hank should not be in NetLab: %v", got)
	}
}

func TestSubscriptionEntryNotification(t *testing.T) {
	s, _ := newTestService(t)
	var mu sync.Mutex
	var got []Notification
	done := make(chan struct{}, 8)
	id, err := s.Subscribe(Subscription{
		Region:  glob.MustParse("CS/Floor3/NetLab"),
		MinProb: 0.3,
		Handler: func(n Notification) {
			mu.Lock()
			got = append(got, n)
			mu.Unlock()
			done <- struct{}{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Subscriptions() != 1 {
		t.Errorf("subscriptions = %d", s.Subscriptions())
	}
	// ivan walks into the NetLab.
	ingestAt(t, s, "ubi-1", "ivan", 370, 15, t0)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("no notification")
	}
	mu.Lock()
	if len(got) != 1 || got[0].Object != "ivan" || got[0].SubscriptionID != id {
		t.Fatalf("notifications = %+v", got)
	}
	if got[0].Prob < 0.3 {
		t.Errorf("prob = %v", got[0].Prob)
	}
	mu.Unlock()
	// A second reading inside the region does NOT re-notify (entry
	// semantics).
	ingestAt(t, s, "ubi-1", "ivan", 371, 16, t0.Add(time.Second))
	s.Quiesce()
	mu.Lock()
	if len(got) != 1 {
		t.Errorf("re-notified while inside: %+v", got)
	}
	mu.Unlock()
	// Leaving and re-entering notifies again.
	ingestAt(t, s, "ubi-1", "ivan", 100, 35, t0.Add(2*time.Second))
	ingestAt(t, s, "ubi-1", "ivan", 370, 15, t0.Add(3*time.Second))
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("no re-entry notification")
	}
	if err := s.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	if err := s.Unsubscribe(id); !errors.Is(err, ErrBadSub) {
		t.Errorf("double unsubscribe err = %v", err)
	}
}

func TestSubscriptionEveryReading(t *testing.T) {
	s, _ := newTestService(t)
	var mu sync.Mutex
	count := 0
	_, err := s.Subscribe(Subscription{
		Object:       "judy",
		Region:       glob.MustParse("CS/Floor3/NetLab"),
		EveryReading: true,
		Handler: func(Notification) {
			mu.Lock()
			count++
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ingestAt(t, s, "ubi-1", "judy", 370, 15, t0.Add(time.Duration(i)*time.Second))
	}
	// Another object must not trigger judy's subscription.
	ingestAt(t, s, "ubi-1", "karl", 370, 15, t0)
	s.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestSubscriptionBandFilter(t *testing.T) {
	s, _ := newTestService(t)
	notified := make(chan Notification, 4)
	_, err := s.Subscribe(Subscription{
		Region:  glob.MustParse("CS/Floor3/NetLab"),
		MinBand: fusion.BandVeryHigh,
		Handler: func(n Notification) { notified <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	// A weak RFID fix does not reach very-high.
	ingestAt(t, s, "rf-1", "lena", 370, 15, t0)
	s.Quiesce()
	select {
	case n := <-notified:
		t.Fatalf("unexpected notification %+v", n)
	default:
	}
}

func TestSubscribeErrors(t *testing.T) {
	s, _ := newTestService(t)
	if _, err := s.Subscribe(Subscription{Region: glob.MustParse("CS/Floor3/NetLab")}); !errors.Is(err, ErrBadSub) {
		t.Errorf("nil handler err = %v", err)
	}
	_, err := s.Subscribe(Subscription{
		Region:  glob.MustParse("CS/Floor3/void"),
		Handler: func(Notification) {},
	})
	if !errors.Is(err, ErrBadSub) {
		t.Errorf("bad region err = %v", err)
	}
}

func TestPrivacyGranularity(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "mary", 370, 15, t0)
	s.SetPrivacy("mary", PrivacyPolicy{MaxGranularity: glob.GranFloor})
	loc, err := s.LocateObject("mary")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3" {
		t.Errorf("symbolic = %s, want floor only", loc.Symbolic)
	}
	// The rectangle is coarsened to the floor bounds.
	if !loc.Rect.Eq(geom.R(0, 0, 500, 100)) {
		t.Errorf("rect = %v, want floor bounds", loc.Rect)
	}
	// Hide coordinates entirely.
	s.SetPrivacy("mary", PrivacyPolicy{MaxGranularity: glob.GranRoom, HideCoordinates: true})
	loc, err = s.LocateObject("mary")
	if err != nil {
		t.Fatal(err)
	}
	if !loc.Coordinate.IsZero() || loc.Rect.Area() != 0 {
		t.Errorf("coordinates should be hidden: %+v", loc)
	}
	if loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("symbolic = %s", loc.Symbolic)
	}
	// Clearing the policy restores full detail.
	s.SetPrivacy("mary", PrivacyPolicy{})
	loc, _ = s.LocateObject("mary")
	if loc.Coordinate.IsZero() {
		t.Error("policy not cleared")
	}
}

func TestRelateRegions(t *testing.T) {
	s, _ := newTestService(t)
	rel, pass, err := s.RelateRegions(
		glob.MustParse("CS/Floor3/NetLab"), glob.MustParse("CS/Floor3/MainCorridor"))
	if err != nil {
		t.Fatal(err)
	}
	if rel != rcc.EC || pass != rcc.PassageFree {
		t.Errorf("NetLab-corridor = %v %v", rel, pass)
	}
	// Coordinate regions relate geometrically.
	rel, _, err = s.RelateRegions(
		glob.MustParse("CS/Floor3/(0,0),(10,0),(10,10),(0,10)"),
		glob.MustParse("CS/Floor3/(2,2),(4,2),(4,4),(2,4)"))
	if err != nil {
		t.Fatal(err)
	}
	if rel != rcc.NTPPi {
		t.Errorf("nested coordinate regions = %v", rel)
	}
	if _, _, err := s.RelateRegions(glob.MustParse("CS/Floor3/void"), glob.MustParse("CS/Floor3")); err == nil {
		t.Error("unknown region should error")
	}
}

func TestRouteAndRegionDistance(t *testing.T) {
	s, _ := newTestService(t)
	netlab := glob.MustParse("CS/Floor3/NetLab")
	hcilab := glob.MustParse("CS/Floor3/HCILab")
	room3105 := glob.MustParse("CS/Floor3/3105")

	rt, err := s.RouteBetween(netlab, hcilab, topo.FreeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Regions) != 3 || rt.Regions[1] != "CS/Floor3/MainCorridor" {
		t.Errorf("route = %v", rt.Regions)
	}
	eu, path, err := s.RegionDistance(netlab, hcilab, topo.FreeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if eu <= 0 || path <= eu {
		t.Errorf("distances eu=%v path=%v", eu, path)
	}
	// 3105 unreachable free-only: path is +Inf but Euclidean remains.
	eu, path, err = s.RegionDistance(netlab, room3105, topo.FreeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if eu <= 0 || path != topo.Infinity {
		t.Errorf("locked room: eu=%v path=%v", eu, path)
	}
}

func TestObjectRelations(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "nina", 370, 15, t0)
	ingestAt(t, s, "ubi-1", "omar", 372, 15, t0)
	ingestAt(t, s, "ubi-1", "pete", 395, 15, t0) // HCILab

	// Proximity: nina and omar are ~2 apart.
	p, err := s.Proximity("nina", "omar", 5)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.3 {
		t.Errorf("close proximity = %v", p)
	}
	pFar, err := s.Proximity("nina", "pete", 5)
	if err != nil {
		t.Fatal(err)
	}
	if pFar != 0 {
		t.Errorf("far proximity = %v", pFar)
	}

	// Co-location at room granularity.
	ok, pj, err := s.CoLocated("nina", "omar", glob.GranRoom)
	if err != nil || !ok || pj <= 0 {
		t.Errorf("co-located = %v %v %v", ok, pj, err)
	}
	ok, _, err = s.CoLocated("nina", "pete", glob.GranRoom)
	if err != nil || ok {
		t.Errorf("different rooms co-located = %v %v", ok, err)
	}
	ok, _, err = s.CoLocated("nina", "pete", glob.GranFloor)
	if err != nil || !ok {
		t.Errorf("same floor not co-located = %v %v", ok, err)
	}

	// Distances: path >= Euclidean through walls.
	eu, path, err := s.ObjectDistance("nina", "pete", topo.FreeOnly)
	if err != nil {
		t.Fatal(err)
	}
	if eu <= 0 || path < eu {
		t.Errorf("eu=%v path=%v", eu, path)
	}

	if _, err := s.Proximity("nina", "ghost", 5); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown proximity err = %v", err)
	}
}

func TestUsageRegions(t *testing.T) {
	s, _ := newTestService(t)
	// quinn stands right at the NetLab display (local (2..8, 0) ->
	// universe x 362..368, y 0).
	ingestAt(t, s, "ubi-1", "quinn", 365, 3, t0)
	p, err := s.InUsageRegion("quinn", "CS/Floor3/NetLab/display1")
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.3 {
		t.Errorf("usage prob = %v", p)
	}
	// NearestUsable picks the NetLab display over the HCILab one.
	id, pBest, err := s.NearestUsable("quinn", "Display", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if id != "CS/Floor3/NetLab/display1" || pBest < p-1e-9 {
		t.Errorf("nearest usable = %s (%v)", id, pBest)
	}
	// Far from any display.
	ingestAt(t, s, "ubi-1", "rosa", 50, 80, t0)
	if _, _, err := s.NearestUsable("rosa", "Display", 0.2); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("no usable display err = %v", err)
	}
	// The light switch has no usage region.
	if _, err := s.InUsageRegion("quinn", "CS/Floor3/3105/lightswitch1"); err == nil {
		t.Error("object without usage region should error")
	}
}

func TestRuleEngineFacts(t *testing.T) {
	s, _ := newTestService(t)
	e := s.RuleEngine()
	// NetLab has a free door to the main corridor.
	ok, err := e.Holds(rules.A("ecfp", rules.C("CS/Floor3/NetLab"), rules.C("CS/Floor3/MainCorridor")))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("ecfp fact missing")
	}
	// 3105's corridor doors are restricted.
	ok, err = e.Holds(rules.A("ecrp", rules.C("CS/Floor3/3105"), rules.C("CS/Floor3/MainCorridor")))
	if err != nil || !ok {
		t.Errorf("ecrp fact = %v %v", ok, err)
	}
	// Derived reachability over the facts.
	if err := e.AddRule(rules.R(
		rules.A("reach", rules.V("X"), rules.V("Y")),
		rules.Pos(rules.A("ecfp", rules.V("X"), rules.V("Y"))),
	)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(rules.R(
		rules.A("reach", rules.V("X"), rules.V("Z")),
		rules.Pos(rules.A("reach", rules.V("X"), rules.V("Y"))),
		rules.Pos(rules.A("ecfp", rules.V("Y"), rules.V("Z"))),
	)); err != nil {
		t.Fatal(err)
	}
	ok, err = e.Holds(rules.A("reach", rules.C("CS/Floor3/NetLab"), rules.C("CS/Floor3/HCILab")))
	if err != nil || !ok {
		t.Errorf("derived reach = %v %v", ok, err)
	}
	// The locked room is not freely reachable.
	ok, err = e.Holds(rules.A("reach", rules.C("CS/Floor3/NetLab"), rules.C("CS/Floor3/3105")))
	if err != nil || ok {
		t.Errorf("locked reach = %v %v", ok, err)
	}
}

func TestCloseIdempotentAndDrains(t *testing.T) {
	s, _ := newTestService(t)
	var wg sync.WaitGroup
	wg.Add(1)
	_, err := s.Subscribe(Subscription{
		Region:  glob.MustParse("CS/Floor3/NetLab"),
		Handler: func(Notification) { wg.Done() },
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestAt(t, s, "ubi-1", "sam", 370, 15, t0)
	wg.Wait()
	s.Close()
	s.Close() // second close is a no-op
}

func TestHistoryRecording(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now), WithHistory(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ubi := model.UbisenseSpec(0.9)
	ubi.TTL = time.Minute
	if err := s.RegisterSensor("ubi-1", ubi); err != nil {
		t.Fatal(err)
	}
	// No history yet.
	if got := s.History("walker"); len(got) != 0 {
		t.Errorf("premature history: %v", got)
	}
	// Five readings with a bounded depth of 3: only the last three
	// estimates remain.
	positions := []float64{100, 150, 200, 250, 300}
	for i, x := range positions {
		clock.Advance(time.Second)
		ingestAt(t, s, "ubi-1", "walker", x, 35, clock.Now())
		_ = i
	}
	trail := s.History("walker")
	if len(trail) != 3 {
		t.Fatalf("trail length = %d", len(trail))
	}
	// Oldest first, tracking the walk east.
	for i := 1; i < len(trail); i++ {
		if trail[i].Rect.Center().X <= trail[i-1].Rect.Center().X {
			t.Errorf("trail not monotone east: %v then %v",
				trail[i-1].Rect.Center(), trail[i].Rect.Center())
		}
		if trail[i].At.Before(trail[i-1].At) {
			t.Error("trail timestamps out of order")
		}
	}
	// HistorySince cuts the prefix.
	since := s.HistorySince("walker", trail[2].At)
	if len(since) != 1 {
		t.Errorf("since = %d entries", len(since))
	}
	if got := s.TrackedObjects(); len(got) != 1 || got[0] != "walker" {
		t.Errorf("tracked = %v", got)
	}
	// The returned slice is a copy.
	trail[0].Object = "mutated"
	if s.History("walker")[0].Object != "walker" {
		t.Error("History exposed internal storage")
	}
}

func TestHistoryDisabledByDefault(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "x", 100, 35, t0)
	if got := s.History("x"); got != nil {
		t.Errorf("history without option: %v", got)
	}
	if got := s.TrackedObjects(); got != nil {
		t.Errorf("tracked without option: %v", got)
	}
}

func TestDistribution(t *testing.T) {
	s, _ := newTestService(t)
	// Two agreeing sensors plus a conflicting stationary badge give a
	// multi-cell posterior.
	ingestAt(t, s, "ubi-1", "dana", 370, 15, t0)
	ingestAt(t, s, "rf-1", "dana", 370, 15, t0)
	dist, err := s.Distribution("dana")
	if err != nil {
		t.Fatal(err)
	}
	if len(dist) == 0 {
		t.Fatal("empty distribution")
	}
	var total float64
	for _, cell := range dist {
		if cell.Prob < 0 || cell.Prob > 1 {
			t.Errorf("cell prob = %v", cell.Prob)
		}
		total += cell.Prob
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("distribution sums to %v", total)
	}
	// Sorted descending, and the top cell is in the NetLab.
	for i := 1; i < len(dist); i++ {
		if dist[i].Prob > dist[i-1].Prob {
			t.Error("distribution not sorted")
		}
	}
	if dist[0].Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("top cell in %s", dist[0].Symbolic)
	}
	if _, err := s.Distribution("ghost"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("unknown object err = %v", err)
	}
}

func TestAccessPolicyPerRequester(t *testing.T) {
	s, _ := newTestService(t)
	ingestAt(t, s, "ubi-1", "boss", 370, 15, t0)
	s.SetAccessPolicy("boss", AccessPolicy{
		Default: PrivacyPolicy{MaxGranularity: glob.GranBuilding},
		Grants: map[string]PrivacyPolicy{
			"assistant": {MaxGranularity: glob.GranRoom},
			"spouse":    {}, // unrestricted grant? zero policy = no coarsening
		},
	})
	// A stranger sees only the building.
	loc, err := s.LocateObjectFor("stranger", "boss")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS" {
		t.Errorf("stranger sees %s", loc.Symbolic)
	}
	// The assistant sees the room.
	loc, err = s.LocateObjectFor("assistant", "boss")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("assistant sees %s", loc.Symbolic)
	}
	// The spouse's zero grant means no coarsening.
	loc, err = s.LocateObjectFor("spouse", "boss")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3/NetLab" || loc.Coordinate.IsZero() {
		t.Errorf("spouse sees %s (coord zero=%v)", loc.Symbolic, loc.Coordinate.IsZero())
	}
	// The subject always sees everything.
	loc, err = s.LocateObjectFor("boss", "boss")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("self sees %s", loc.Symbolic)
	}
	// No policy: everyone sees everything.
	ingestAt(t, s, "ubi-1", "open", 370, 15, t0)
	loc, err = s.LocateObjectFor("anyone", "open")
	if err != nil || loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("unrestricted object: %s %v", loc.Symbolic, err)
	}
	// Clearing the policy restores openness.
	s.SetAccessPolicy("boss", AccessPolicy{})
	loc, _ = s.LocateObjectFor("stranger", "boss")
	if loc.Symbolic.String() != "CS/Floor3/NetLab" {
		t.Errorf("policy not cleared: %s", loc.Symbolic)
	}
}

func TestDefineRegionAndStatic(t *testing.T) {
	s, _ := newTestService(t)
	// The paper's §4.5 example: a work region inside a room.
	workArea := glob.MustParse("CS/Floor3/NetLab/workArea")
	err := s.DefineRegion(workArea, geom.Polygon{
		geom.Pt(2, 2), geom.Pt(10, 2), geom.Pt(10, 10), geom.Pt(2, 10),
	}, map[string]string{"purpose": "focus"})
	if err != nil {
		t.Fatal(err)
	}
	// Coordinates resolve in the room frame -> universe.
	rect, err := s.DB().ResolveGLOB(workArea)
	if err != nil {
		t.Fatal(err)
	}
	if !geom.R(362, 2, 370, 10).Eq(rect) {
		t.Errorf("work area = %v", rect)
	}
	// Region queries work against it immediately.
	ingestAt(t, s, "ubi-1", "worker", 366, 6, t0)
	p, _, err := s.ProbInRegion("worker", workArea)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.3 {
		t.Errorf("P(in work area) = %v", p)
	}
	// Subscriptions can target it.
	got := make(chan Notification, 2)
	if _, err := s.Subscribe(Subscription{
		Region:  workArea,
		MinProb: 0.3,
		Handler: func(n Notification) { got <- n },
	}); err != nil {
		t.Fatal(err)
	}
	ingestAt(t, s, "ubi-1", "visitor", 366, 6, t0)
	select {
	case n := <-got:
		if n.Object != "visitor" {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no notification for defined region")
	}
	// The symbolic lattice chain: workArea ⊂ NetLab ⊂ Floor3.
	chain, err := s.SymbolicAncestors(workArea)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 || chain[0].String() != "CS/Floor3/NetLab" || chain[1].String() != "CS/Floor3" {
		t.Errorf("ancestors = %v", chain)
	}
	// Static objects.
	table := glob.MustParse("CS/Floor3/NetLab/table1")
	err = s.DefineStatic(table, "Table", glob.KindPolygon,
		[]geom.Point{{X: 12, Y: 12}, {X: 16, Y: 12}, {X: 16, Y: 14}, {X: 12, Y: 14}},
		map[string]string{"usage-radius": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if p, err := s.InUsageRegion("worker", table.String()); err != nil || p < 0 {
		t.Errorf("table usage = %v %v", p, err)
	}
	// Removal.
	if err := s.RemoveRegion(workArea); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().ResolveGLOB(workArea); err == nil {
		t.Error("region still resolvable after removal")
	}
	// Coordinate GLOBs are rejected.
	if err := s.DefineRegion(glob.MustParse("CS/Floor3/(1,1)"), nil, nil); err == nil {
		t.Error("coordinate GLOB should be rejected")
	}
	if err := s.DefineStatic(glob.MustParse("CS/Floor3/(1,1)"), "Table", glob.KindPoint, nil, nil); err == nil {
		t.Error("coordinate GLOB should be rejected")
	}
}
