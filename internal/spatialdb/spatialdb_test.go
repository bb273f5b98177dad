package spatialdb

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

var t0 = time.Date(2026, 7, 5, 11, 52, 35, 0, time.UTC)

// testDB builds a DB over a simple building: root frame "CS", floor
// frame "CS/Floor3" at the building origin, and a universe of
// 500x100 (the paper's floor polygon).
func testDB(t *testing.T) *DB {
	t.Helper()
	tr := coords.NewTree()
	if err := tr.AddRoot("CS"); err != nil {
		t.Fatal(err)
	}
	if err := tr.AddFrame("CS/Floor3", "CS", coords.Identity); err != nil {
		t.Fatal(err)
	}
	// Room 3105 has its own frame with origin at its corner.
	if err := tr.AddFrame("CS/Floor3/3105", "CS/Floor3",
		coords.Transform{Origin: geom.Pt(330, 0), Scale: 1}); err != nil {
		t.Fatal(err)
	}
	return New(tr.Routes(), geom.R(0, 0, 500, 100))
}

func roomObject(id string, pts ...geom.Point) Object {
	return Object{
		GLOB:        glob.MustParse("CS/Floor3/" + id),
		Type:        "Room",
		Kind:        glob.KindPolygon,
		LocalPoints: pts,
	}
}

// paperFloor loads the rows of Table 1.
func paperFloor(t *testing.T, db *DB) {
	t.Helper()
	objs := []Object{
		{
			GLOB: glob.MustParse("CS/Floor3"), Type: "Floor", Kind: glob.KindPolygon,
			LocalPoints: []geom.Point{{X: 0, Y: 0}, {X: 500, Y: 0}, {X: 500, Y: 100}, {X: 0, Y: 100}},
		},
		roomObject("3105", geom.Pt(330, 0), geom.Pt(350, 0), geom.Pt(350, 30), geom.Pt(330, 30)),
		roomObject("NetLab", geom.Pt(360, 0), geom.Pt(380, 0), geom.Pt(380, 30), geom.Pt(360, 30)),
		{
			GLOB: glob.MustParse("CS/Floor3/LabCorridor"), Type: "Corridor", Kind: glob.KindPolygon,
			LocalPoints: []geom.Point{{X: 310, Y: 0}, {X: 330, Y: 0}, {X: 330, Y: 30}, {X: 310, Y: 30}},
		},
	}
	objs[1].Properties = map[string]string{"power-outlets": "yes", "bluetooth": "high"}
	for _, o := range objs {
		if err := db.InsertObject(o); err != nil {
			t.Fatal(err)
		}
	}
}

func ubiSpec() model.SensorSpec {
	return model.UbisenseSpec(0.9)
}

func TestInsertAndGetObject(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	o, err := db.GetObject("CS/Floor3/3105")
	if err != nil {
		t.Fatal(err)
	}
	if o.Type != "Room" || o.Kind != glob.KindPolygon {
		t.Errorf("object = %+v", o)
	}
	if !o.Bounds.Eq(geom.R(330, 0, 350, 30)) {
		t.Errorf("bounds = %v", o.Bounds)
	}
	if o.Properties["bluetooth"] != "high" {
		t.Errorf("properties = %v", o.Properties)
	}
	if _, err := db.GetObject("CS/Floor3/nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing object err = %v", err)
	}
}

func TestInsertObjectErrors(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	// Duplicate.
	err := db.InsertObject(roomObject("3105", geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1)))
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate err = %v", err)
	}
	// No points.
	err = db.InsertObject(Object{GLOB: glob.MustParse("CS/Floor3/empty"), Kind: glob.KindPolygon})
	if !errors.Is(err, ErrBadGeometry) {
		t.Errorf("no-points err = %v", err)
	}
	// Empty GLOB.
	err = db.InsertObject(Object{Kind: glob.KindPoint, LocalPoints: []geom.Point{{}}})
	if !errors.Is(err, ErrBadGeometry) {
		t.Errorf("empty GLOB err = %v", err)
	}
	// Unknown frame prefix.
	err = db.InsertObject(Object{
		GLOB: glob.MustParse("ZZ/1/room"), Kind: glob.KindPolygon,
		LocalPoints: []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}},
	})
	if err == nil {
		t.Error("unknown frame should fail")
	}
}

func TestObjectInsertCopiesInput(t *testing.T) {
	db := testDB(t)
	pts := []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}}
	props := map[string]string{"a": "1"}
	o := Object{GLOB: glob.MustParse("CS/Floor3/r"), Type: "Room", Kind: glob.KindPolygon,
		LocalPoints: pts, Properties: props}
	if err := db.InsertObject(o); err != nil {
		t.Fatal(err)
	}
	pts[0].X = 999
	props["a"] = "mutated"
	got, _ := db.GetObject("CS/Floor3/r")
	if got.LocalPoints[0].X != 0 || got.Properties["a"] != "1" {
		t.Error("InsertObject aliased caller data")
	}
}

func TestDeleteObject(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.DeleteObject("CS/Floor3/3105"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetObject("CS/Floor3/3105"); !errors.Is(err, ErrNotFound) {
		t.Error("object still present")
	}
	if err := db.DeleteObject("CS/Floor3/3105"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
	// Index no longer returns it.
	got := db.IntersectingObjects(geom.R(330, 0, 350, 30), ObjectFilter{Type: "Room"})
	for _, o := range got {
		if o.ID() == "CS/Floor3/3105" {
			t.Error("deleted object still indexed")
		}
	}
}

func TestSpatialQueries(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	// Intersecting the lab corridor area.
	got := db.IntersectingObjects(geom.R(315, 5, 335, 25), ObjectFilter{})
	ids := idsOf(got)
	// Floor + corridor + 3105 (which starts at x=330).
	if len(ids) != 3 || !has(ids, "CS/Floor3/LabCorridor") || !has(ids, "CS/Floor3/3105") {
		t.Errorf("intersecting = %v", ids)
	}
	// Filter by type excludes the floor.
	got = db.IntersectingObjects(geom.R(315, 5, 335, 25), ObjectFilter{Type: "Room"})
	if len(got) != 1 || got[0].ID() != "CS/Floor3/3105" {
		t.Errorf("rooms = %v", idsOf(got))
	}
	// Contained within the east wing (x >= 300).
	got = db.ContainedObjects(geom.R(300, 0, 400, 50), ObjectFilter{})
	ids = idsOf(got)
	if len(ids) != 3 || has(ids, "CS/Floor3") {
		t.Errorf("contained = %v", ids)
	}
	// Point query: deepest object first.
	got = db.ObjectsAt(geom.Pt(340, 10), ObjectFilter{})
	if len(got) != 2 || got[0].ID() != "CS/Floor3/3105" || got[1].ID() != "CS/Floor3" {
		t.Errorf("at = %v", idsOf(got))
	}
	// Prefix filter.
	got = db.IntersectingObjects(geom.R(0, 0, 500, 100), ObjectFilter{
		Prefix: glob.MustParse("CS/Floor3"), Type: "Room"})
	if len(got) != 2 {
		t.Errorf("prefixed rooms = %v", idsOf(got))
	}
}

func TestNearestWithProperties(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	cases := []struct {
		name string
		p    geom.Point
		k    int
		f    ObjectFilter
		want []string // the leading IDs, in order
		n    int      // the result length
	}{
		// "Where is the nearest region that has power outlets and high
		// Bluetooth signal?" (§5.1)
		{name: "properties", p: geom.Pt(0, 0), k: 1, f: ObjectFilter{
			Properties: map[string]string{"power-outlets": "yes", "bluetooth": "high"},
		}, want: []string{"CS/Floor3/3105"}, n: 1},
		// Without a property filter: k objects ordered by distance.
		{name: "rooms", p: geom.Pt(370, 10), k: 2, f: ObjectFilter{Type: "Room"}, n: 2,
			want: []string{"CS/Floor3/NetLab"}},
		{name: "unsatisfiable", p: geom.Pt(0, 0), k: 3, f: ObjectFilter{
			Properties: map[string]string{"pool": "olympic"}}},
		{name: "zero k", p: geom.Pt(0, 0), k: 0},
		{name: "negative k", p: geom.Pt(0, 0), k: -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := db.Nearest(c.p, c.k, c.f)
			if len(got) != c.n {
				t.Fatalf("nearest = %v, want %d objects", idsOf(got), c.n)
			}
			for i, id := range c.want {
				if got[i].ID() != id {
					t.Errorf("nearest[%d] = %s, want %s", i, got[i].ID(), id)
				}
			}
		})
	}
}

// TestObjectQueryRaisesVisitsGauge pins the rtree_node_visits gauge the
// benchmark's rtree.node_visits_per_query row reads: an object query
// counts its node visits on the live index.
func TestObjectQueryRaisesVisitsGauge(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	r := geom.R(0, 0, 500, 100)
	db.IntersectingObjects(r, ObjectFilter{})
	first := mVisitsGauge.Value()
	if first <= 0 {
		t.Fatalf("rtree_node_visits = %v after a query, want > 0", first)
	}
	db.IntersectingObjects(r, ObjectFilter{})
	if second := mVisitsGauge.Value(); second <= first {
		t.Errorf("rtree_node_visits %v -> %v across a query, want a rise", first, second)
	}
}

func TestResolveGLOB(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	// Symbolic.
	r, err := db.ResolveGLOB(glob.MustParse("CS/Floor3/3105"))
	if err != nil || !r.Eq(geom.R(330, 0, 350, 30)) {
		t.Errorf("symbolic resolve = %v, %v", r, err)
	}
	// Coordinate in the floor frame.
	r, err = db.ResolveGLOB(glob.MustParse("CS/Floor3/(10,20)"))
	if err != nil || !r.Eq(geom.R(10, 20, 10, 20)) {
		t.Errorf("coordinate resolve = %v, %v", r, err)
	}
	// Coordinate in the room frame translates to building coordinates.
	r, err = db.ResolveGLOB(glob.MustParse("CS/Floor3/3105/(5,22)"))
	if err != nil || !r.Eq(geom.R(335, 22, 335, 22)) {
		t.Errorf("room-frame resolve = %v, %v", r, err)
	}
	// Unknown symbolic name.
	if _, err := db.ResolveGLOB(glob.MustParse("CS/Floor3/void")); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown symbolic err = %v", err)
	}
	// Empty.
	if _, err := db.ResolveGLOB(glob.GLOB{}); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("empty err = %v", err)
	}
}

func TestSensorRegistryAndSpec(t *testing.T) {
	db := testDB(t)
	if err := db.RegisterSensor("Ubi-18", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	spec, err := db.SensorSpec("Ubi-18")
	if err != nil || spec.Type != model.TypeUbisense {
		t.Errorf("spec = %+v, %v", spec, err)
	}
	if _, err := db.SensorSpec("zz"); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("unknown sensor err = %v", err)
	}
	if err := db.RegisterSensor("", ubiSpec()); err == nil {
		t.Error("empty id should fail")
	}
	bad := ubiSpec()
	bad.TTL = 0
	if err := db.RegisterSensor("x", bad); err == nil {
		t.Error("invalid spec should fail")
	}
	if got := db.Sensors(); len(got) != 1 || got[0] != "Ubi-18" {
		t.Errorf("Sensors = %v", got)
	}
}

func TestInsertReadingResolvesRegion(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("Ubi-18", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	// Coordinate reading in the room frame with an explicit radius.
	r := model.Reading{
		SensorID:        "Ubi-18",
		MObjectID:       "ralph",
		Location:        glob.MustParse("CS/Floor3/3105/(5,22)"),
		DetectionRadius: 0.5,
		Time:            t0,
	}
	if err := db.InsertReading(r); err != nil {
		t.Fatal(err)
	}
	rows := db.ReadingsFor("ralph", t0)
	if len(rows) != 1 {
		t.Fatalf("rows = %v", rows)
	}
	if !rows[0].Region.Eq(geom.R(334.5, 21.5, 335.5, 22.5)) {
		t.Errorf("region = %v", rows[0].Region)
	}
	if rows[0].SensorType != model.TypeUbisense {
		t.Errorf("sensor type not defaulted: %q", rows[0].SensorType)
	}
	// Symbolic reading resolves to the room's MBR.
	card := model.CardReaderSpec(glob.MustParse("CS/Floor3/NetLab"))
	if err := db.RegisterSensor("card-1", card); err != nil {
		t.Fatal(err)
	}
	sym := model.Reading{
		SensorID:  "card-1",
		MObjectID: "tom",
		Location:  glob.MustParse("CS/Floor3/NetLab"),
		Time:      t0,
	}
	if err := db.InsertReading(sym); err != nil {
		t.Fatal(err)
	}
	rows = db.ReadingsFor("tom", t0)
	if len(rows) != 1 || !rows[0].Region.Eq(geom.R(360, 0, 380, 30)) {
		t.Errorf("symbolic reading region = %v", rows)
	}
}

func TestInsertReadingErrors(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	// Unregistered sensor.
	err := db.InsertReading(model.Reading{SensorID: "zz", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/(1,1)"), Time: t0})
	if !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("err = %v", err)
	}
	if err := db.RegisterSensor("s", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	// Missing mobject.
	err = db.InsertReading(model.Reading{SensorID: "s",
		Location: glob.MustParse("CS/Floor3/(1,1)"), Time: t0})
	if err == nil {
		t.Error("missing mobject should fail")
	}
	// Missing location and region.
	err = db.InsertReading(model.Reading{SensorID: "s", MObjectID: "p", Time: t0})
	if !errors.Is(err, ErrBadGeometry) {
		t.Errorf("missing location err = %v", err)
	}
	// Unknown symbolic location.
	err = db.InsertReading(model.Reading{SensorID: "s", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/void"), Time: t0})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown location err = %v", err)
	}
}

func TestReadingTTLAndExpiry(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("Ubi-18", ubiSpec()); err != nil { // TTL 3s
		t.Fatal(err)
	}
	r := model.Reading{SensorID: "Ubi-18", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/(10,10)"), Time: t0}
	if err := db.InsertReading(r); err != nil {
		t.Fatal(err)
	}
	if rows := db.ReadingsFor("p", t0.Add(2*time.Second)); len(rows) != 1 {
		t.Errorf("fresh rows = %v", rows)
	}
	if rows := db.ReadingsFor("p", t0.Add(5*time.Second)); len(rows) != 0 {
		t.Errorf("expired rows = %v", rows)
	}
	// The expired reading was pruned; the object is gone.
	if got := db.MobileObjects(); len(got) != 0 {
		t.Errorf("objects after expiry = %v", got)
	}
}

func TestExpireReadingsWithMatcher(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	long := model.BiometricLongSpec(glob.MustParse("CS/Floor3/NetLab"), 15*time.Minute, 0.3)
	if err := db.RegisterSensor("bio-1", long); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(model.Reading{SensorID: "bio-1", MObjectID: "tom",
		Location: glob.MustParse("CS/Floor3/NetLab"), Time: t0}); err != nil {
		t.Fatal(err)
	}
	// Manual logout: expire all readings for tom from bio-1 (§6.3).
	db.ExpireReadings(t0, func(r model.Reading) bool {
		return r.MObjectID == "tom" && r.SensorID == "bio-1"
	})
	if rows := db.ReadingsFor("tom", t0); len(rows) != 0 {
		t.Errorf("rows after logout = %v", rows)
	}
}

func TestLatestPerSensor(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	spec := ubiSpec()
	spec.TTL = time.Minute
	if err := db.RegisterSensor("s1", spec); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSensor("s2", spec); err != nil {
		t.Fatal(err)
	}
	mk := func(sensor string, x float64, at time.Time) model.Reading {
		return model.Reading{SensorID: sensor, MObjectID: "p",
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(x, 10)),
			Time:     at}
	}
	for _, r := range []model.Reading{
		mk("s1", 10, t0),
		mk("s1", 20, t0.Add(2*time.Second)),
		mk("s2", 30, t0.Add(time.Second)),
	} {
		if err := db.InsertReading(r); err != nil {
			t.Fatal(err)
		}
	}
	latest := db.LatestPerSensor("p", t0.Add(3*time.Second))
	if len(latest) != 2 {
		t.Fatalf("latest = %v", latest)
	}
	if latest[0].SensorID != "s1" || latest[0].Region.Center().X != 20 {
		t.Errorf("s1 latest = %+v", latest[0])
	}
}

func TestMovementDetection(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	spec := ubiSpec()
	spec.TTL = time.Minute
	if err := db.RegisterSensor("s1", spec); err != nil {
		t.Fatal(err)
	}
	first := model.Reading{SensorID: "s1", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/(10,10)"), Time: t0}
	if err := db.InsertReading(first); err != nil {
		t.Fatal(err)
	}
	rows := db.ReadingsFor("p", t0)
	if rows[0].Moving {
		t.Error("first reading should not be moving")
	}
	second := model.Reading{SensorID: "s1", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/(15,10)"), Time: t0.Add(time.Second)}
	if err := db.InsertReading(second); err != nil {
		t.Fatal(err)
	}
	rows = db.ReadingsFor("p", t0.Add(time.Second))
	if len(rows) != 2 || !rows[1].Moving {
		t.Errorf("second reading should be moving: %+v", rows)
	}
	// Same position again: not moving.
	third := model.Reading{SensorID: "s1", MObjectID: "p",
		Location: glob.MustParse("CS/Floor3/(15,10)"), Time: t0.Add(2 * time.Second)}
	if err := db.InsertReading(third); err != nil {
		t.Fatal(err)
	}
	rows = db.ReadingsFor("p", t0.Add(2*time.Second))
	if rows[2].Moving {
		t.Error("stationary repeat flagged as moving")
	}
}

// firing is one trigger match a recorder saw: the matched trigger and
// the stored reading that matched it.
type firing struct {
	trigger string
	StoredReading
}

// recorder is a Dispatcher that records each stored reading's matched
// triggers, in submission order.
type recorder struct {
	mu     sync.Mutex
	events []firing
}

func (r *recorder) dispatch(stored []StoredReading) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range stored {
		for _, id := range ev.Triggers {
			r.events = append(r.events, firing{trigger: id, StoredReading: ev})
		}
	}
}

// take returns the firings recorded so far and forgets them.
func (r *recorder) take() []firing {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.events
	r.events = nil
	return out
}

func TestTriggersFireOnInsert(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	insert := func(r model.Reading) {
		t.Helper()
		if _, err := db.InsertReadings([]model.Reading{r}, rec.dispatch); err != nil {
			t.Fatal(err)
		}
	}
	// Trigger on room 3105 for anyone.
	if err := db.AddTrigger("t-room", "", geom.R(330, 0, 350, 30)); err != nil {
		t.Fatal(err)
	}
	// Trigger only for alice anywhere on the floor.
	if err := db.AddTrigger("t-alice", "alice", geom.R(0, 0, 500, 100)); err != nil {
		t.Fatal(err)
	}
	// bob walks into 3105: only t-room fires.
	insert(model.Reading{SensorID: "s1", MObjectID: "bob",
		Location: glob.MustParse("CS/Floor3/3105/(5,5)"), Time: t0})
	if events := rec.take(); len(events) != 1 || events[0].trigger != "t-room" || events[0].Reading.MObjectID != "bob" {
		t.Errorf("events = %+v", events)
	}
	// alice appears in the west wing: only t-alice fires.
	insert(model.Reading{SensorID: "s1", MObjectID: "alice",
		Location: glob.MustParse("CS/Floor3/(50,50)"), Time: t0})
	if events := rec.take(); len(events) != 1 || events[0].trigger != "t-alice" {
		t.Errorf("events = %+v", events)
	}
	// Without a Dispatcher a stored reading reaches no consumer.
	if err := db.InsertReading(model.Reading{SensorID: "s1", MObjectID: "alice",
		Location: glob.MustParse("CS/Floor3/(60,50)"), Time: t0}); err != nil {
		t.Fatal(err)
	}
	if events := rec.take(); len(events) != 0 {
		t.Errorf("nil-dispatcher insert delivered %+v", events)
	}
}

func TestTriggerLifecycle(t *testing.T) {
	db := testDB(t)
	region := geom.R(0, 0, 10, 10)
	if err := db.AddTrigger("t1", "", region); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTrigger("t1", "", region); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate trigger err = %v", err)
	}
	if db.TriggerCount() != 1 {
		t.Errorf("count = %d", db.TriggerCount())
	}
	if err := db.RemoveTrigger("t1"); err != nil {
		t.Fatal(err)
	}
	if err := db.RemoveTrigger("t1"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remove missing err = %v", err)
	}
	if err := db.AddTrigger("", "", region); !errors.Is(err, ErrBadTrigger) {
		t.Errorf("empty id err = %v", err)
	}
	if err := db.AddTrigger("t2", "", geom.Rect{}); !errors.Is(err, ErrBadTrigger) {
		t.Errorf("degenerate region err = %v", err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	spec := ubiSpec()
	spec.TTL = time.Minute
	if err := db.RegisterSensor("s1", spec); err != nil {
		t.Fatal(err)
	}
	if err := db.AddTrigger("t", "", geom.R(0, 0, 500, 100)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r := model.Reading{
					SensorID:  "s1",
					MObjectID: fmt.Sprintf("p%d", w),
					Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"),
						geom.Pt(float64(i), float64(w*10))),
					Time: t0.Add(time.Duration(i) * time.Millisecond),
				}
				if err := db.InsertReading(r); err != nil {
					t.Error(err)
					return
				}
				db.ReadingsFor(r.MObjectID, t0.Add(time.Second))
				db.IntersectingObjects(geom.R(0, 0, 100, 100), ObjectFilter{})
			}
		}(w)
	}
	wg.Wait()
	if got := len(db.MobileObjects()); got != 4 {
		t.Errorf("mobile objects = %d", got)
	}
}

func TestDumpTables(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("Ubi-18", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(model.Reading{
		SensorID: "Ubi-18", MObjectID: "ralph-bat",
		Location:        glob.MustParse("CS/Floor3/3105/(5,22)"),
		DetectionRadius: 0.5, Time: t0,
	}); err != nil {
		t.Fatal(err)
	}
	objTable := db.DumpObjectTable()
	for _, want := range []string{"ObjectIdentifier", "3105", "NetLab", "LabCorridor", "(330,0)"} {
		if !strings.Contains(objTable, want) {
			t.Errorf("object table missing %q:\n%s", want, objTable)
		}
	}
	readTable := db.DumpReadingTable()
	for _, want := range []string{"Ubi-18", "ralph-bat", "(5,22)", "11:52:35"} {
		if !strings.Contains(readTable, want) {
			t.Errorf("reading table missing %q:\n%s", want, readTable)
		}
	}
	sensorTable := db.DumpSensorTable()
	for _, want := range []string{"SensorId", "Confidence", "Ubi-18", "3"} {
		if !strings.Contains(sensorTable, want) {
			t.Errorf("sensor table missing %q:\n%s", want, sensorTable)
		}
	}
}

func idsOf(objs []Object) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.ID()
	}
	return out
}

func has(ids []string, want string) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

func TestReadingStorageBounded(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	spec := ubiSpec()
	spec.TTL = time.Hour // nothing expires during the test
	if err := db.RegisterSensor("s1", spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		err := db.InsertReading(model.Reading{
			SensorID:  "s1",
			MObjectID: "hoarder",
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"),
				geom.Pt(float64(i%400), 10)),
			Time: t0.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rows := db.ReadingsFor("hoarder", t0.Add(200*time.Second))
	if len(rows) > 64 {
		t.Errorf("stored %d rows, want <= 64", len(rows))
	}
	// The newest reading survived the pruning.
	last := rows[len(rows)-1]
	if !last.Time.Equal(t0.Add(199 * time.Second)) {
		t.Errorf("newest reading lost: %v", last.Time)
	}
}
