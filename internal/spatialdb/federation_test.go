package spatialdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

func TestExportImportRoundTrip(t *testing.T) {
	src := multiFloorDB(t, 2)
	dst := multiFloorDB(t, 2)
	for _, db := range []*DB{src, dst} {
		if err := db.RegisterSensor("ubi-1", longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Now()
	for i := 0; i < 3; i++ {
		if err := src.InsertReading(floorReading("ubi-1", "alice", 1, float64(10+i), 20, at.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}

	rows, epoch, ok := src.ExportObject("alice")
	if !ok || len(rows) != 3 {
		t.Fatalf("ExportObject = %d rows, ok=%v", len(rows), ok)
	}
	if epoch != src.ReadingEpoch("alice") {
		t.Errorf("exported epoch %d != ReadingEpoch %d", epoch, src.ReadingEpoch("alice"))
	}

	if !dst.ImportObject("alice", rows, epoch) {
		t.Fatal("first import should apply")
	}
	got := dst.ReadingsFor("alice", at)
	want := src.ReadingsFor("alice", at)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("imported rows differ:\n got %+v\nwant %+v", got, want)
	}
	// Epoch monotonicity across the handoff: the destination's epoch is
	// strictly greater than any value the source handed out.
	if dst.ReadingEpoch("alice") != epoch+1 {
		t.Errorf("dst epoch = %d, want %d", dst.ReadingEpoch("alice"), epoch+1)
	}
	if key, ok := dst.ObjectShardKey("alice"); !ok || key != "CS/Floor1" {
		t.Errorf("imported object shard = %q, ok=%v", key, ok)
	}
}

func TestImportReplayNeverDoubleApplies(t *testing.T) {
	src := multiFloorDB(t, 1)
	dst := multiFloorDB(t, 1)
	for _, db := range []*DB{src, dst} {
		if err := db.RegisterSensor("ubi-1", longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Now()
	if err := src.InsertReading(floorReading("ubi-1", "bob", 1, 5, 5, at)); err != nil {
		t.Fatal(err)
	}
	rows, epoch, _ := src.ExportObject("bob")

	if !dst.ImportObject("bob", rows, epoch) {
		t.Fatal("first import should apply")
	}
	epochAfter := dst.ReadingEpoch("bob")

	// A replayed prepare (lost ack, retried) must be a no-op.
	for i := 0; i < 3; i++ {
		if dst.ImportObject("bob", rows, epoch) {
			t.Fatal("replayed import must not re-apply")
		}
	}
	if got := dst.ReadingEpoch("bob"); got != epochAfter {
		t.Errorf("replay moved epoch %d -> %d", epochAfter, got)
	}
	if got := len(dst.ReadingsFor("bob", at)); got != 1 {
		t.Errorf("replay duplicated rows: %d", got)
	}

	// Local progress past the handoff also shields against stale
	// replays: new ingest bumps the epoch, the old payload stays dead.
	if err := dst.InsertReading(floorReading("ubi-1", "bob", 1, 6, 6, at.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if dst.ImportObject("bob", rows, epoch) {
		t.Error("stale import applied over newer local state")
	}
	if got := len(dst.ReadingsFor("bob", at)); got != 2 {
		t.Errorf("rows after stale replay = %d, want 2", got)
	}
}

// TestImportMergesDegradedRows covers the degraded-fallback handoff:
// a daemon that stored rows locally while the owner was down later
// hands them over at a lower epoch than the owner's — the merge must
// keep both row sets and keep the epoch monotonic.
func TestImportMergesDegradedRows(t *testing.T) {
	owner := multiFloorDB(t, 1)
	if err := owner.RegisterSensor("ubi-1", longSpec()); err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	// The owner already holds rows at a high epoch.
	for i := 0; i < 5; i++ {
		if err := owner.InsertReading(floorReading("ubi-1", "dave", 1, float64(i), 1, at.Add(time.Duration(i)*time.Second))); err != nil {
			t.Fatal(err)
		}
	}
	highEpoch := owner.ReadingEpoch("dave")

	// A degraded peer accumulated different rows at a low epoch.
	degraded := []model.Reading{
		floorReading("ubi-1", "dave", 1, 50, 1, at.Add(10*time.Second)),
		floorReading("ubi-1", "dave", 1, 51, 1, at.Add(11*time.Second)),
	}
	if !owner.ImportObject("dave", degraded, 2) {
		t.Fatal("low-epoch handoff with fresh rows must apply")
	}
	rows := owner.ReadingsFor("dave", at)
	if len(rows) != 7 {
		t.Errorf("merged rows = %d, want 7 (no clobber, no dup)", len(rows))
	}
	if e := owner.ReadingEpoch("dave"); e <= highEpoch {
		t.Errorf("epoch regressed: %d -> %d", highEpoch, e)
	}
}

func TestDropObjectCommitsMigration(t *testing.T) {
	db := multiFloorDB(t, 1)
	if err := db.RegisterSensor("ubi-1", longSpec()); err != nil {
		t.Fatal(err)
	}
	at := time.Now()
	if err := db.InsertReading(floorReading("ubi-1", "carol", 1, 1, 1, at)); err != nil {
		t.Fatal(err)
	}
	epoch := db.ReadingEpoch("carol")
	if db.DropObject("carol", epoch+1) {
		t.Fatal("drop with a stale epoch must refuse — unacked rows would be lost")
	}
	if !db.DropObject("carol", epoch) {
		t.Fatal("DropObject should report presence")
	}
	if db.DropObject("carol", epoch) {
		t.Error("second drop should be a no-op")
	}
	if rows := db.ReadingsFor("carol", at); len(rows) != 0 {
		t.Errorf("rows survived drop: %+v", rows)
	}
	if _, ok := db.ObjectShardKey("carol"); ok {
		t.Error("residence survived drop")
	}
	if e := db.ReadingEpoch("carol"); e != 0 {
		t.Errorf("epoch survived drop: %d", e)
	}
	// The object can come back through a later import (migrated back).
	back := []model.Reading{floorReading("ubi-1", "carol", 1, 2, 2, at)}
	if !db.ImportObject("carol", back, 7) {
		t.Fatal("re-import after drop should apply")
	}
	if e := db.ReadingEpoch("carol"); e != 8 {
		t.Errorf("re-import epoch = %d, want 8", e)
	}
}

// refReadingKey is the reading identity as a string-keyed struct: the
// sensor, the nanosecond timestamp and the formatted location. It is
// the obviously-right reference sameReading must agree with.
type refReadingKey struct {
	sensor string
	atNano int64
	loc    string
}

func refKeyOf(r model.Reading) refReadingKey {
	return refReadingKey{sensor: r.SensorID, atNano: r.Time.UnixNano(), loc: r.Location.String()}
}

// TestSameReadingMatchesStringKey checks the field-first identity
// against the string key on seeded random pairs drawn from small pools,
// so that equal keys, equal sensor and time at another location, ±0 and
// NaN coordinates, and one instant in two time zones all come up often.
func TestSameReadingMatchesStringKey(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	vals := []float64{0, math.Copysign(0, -1), 1.5, 2, 1e21, math.NaN()}
	paths := [][]string{{"CS", "Floor1"}, {"CS", "Floor1", "NetLab"}, {"CS", "Floor2"}}
	zones := []*time.Location{time.UTC, time.FixedZone("X", 3600)}
	val := func() float64 { return vals[rng.Intn(len(vals))] }
	location := func() glob.GLOB {
		g := glob.GLOB{Path: paths[rng.Intn(len(paths))]}
		switch rng.Intn(3) {
		case 1:
			g.Coords = []glob.Coord{{X: val(), Y: val()}}
		case 2:
			g.Coords = []glob.Coord{{X: val(), Y: val(), Z: val(), Has3D: true}}
		}
		return g
	}
	draw := func() model.Reading {
		return model.Reading{
			SensorID:  []string{"s1", "s2"}[rng.Intn(2)],
			MObjectID: "obj",
			Location:  location(),
			Time:      t0.Add(time.Duration(rng.Intn(2))).In(zones[rng.Intn(len(zones))]),
		}
	}
	var same, otherLocation, signedZero int
	for i := 0; i < 20000; i++ {
		a := draw()
		b := a
		// Perturb b one field at a time, so most pairs differ in at most
		// one place and equal keys stay common.
		switch rng.Intn(4) {
		case 0:
			b.Time = t0.Add(time.Duration(rng.Intn(2))).In(zones[rng.Intn(len(zones))])
		case 1:
			b.SensorID = []string{"s1", "s2"}[rng.Intn(2)]
		case 2:
			b.Location = location()
		}
		want := refKeyOf(a) == refKeyOf(b)
		if got := sameReading(&a, &b); got != want {
			t.Fatalf("pair %d: sameReading = %v, string key says %v\n a %+v\n b %+v", i, got, want, a, b)
		}
		if got := sameReading(&b, &a); got != want {
			t.Fatalf("pair %d: sameReading is not symmetric", i)
		}
		ka, kb := refKeyOf(a), refKeyOf(b)
		switch {
		case want:
			same++
		case ka.sensor == kb.sensor && ka.atNano == kb.atNano:
			otherLocation++
			if len(a.Location.Coords) > 0 && len(b.Location.Coords) > 0 &&
				a.Location.Coords[0].X == b.Location.Coords[0].X &&
				math.Signbit(a.Location.Coords[0].X) != math.Signbit(b.Location.Coords[0].X) {
				signedZero++
			}
		}
	}
	if same < 1000 || otherLocation < 1000 || signedZero < 10 {
		t.Errorf("pairs drawn do not cover the identity: %d equal, %d same sensor and time at another location, %d differing only by a zero's sign in X",
			same, otherLocation, signedZero)
	}
}

// coordinateRing stores a full ring of coordinate readings for id,
// alternating two sensors.
func coordinateRing(t *testing.T, db *DB, id string) {
	t.Helper()
	for _, s := range []string{"s1", "s2"} {
		if err := db.RegisterSensor(s, longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < maxReadingsPerObject; i++ {
		r := floorReading([]string{"s1", "s2"}[i%2], id, 1, float64(i)/2, 7, t0.Add(time.Duration(i)*time.Millisecond))
		if err := db.InsertReading(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestImportReplayOfCoordinateRingAppliesNothing replays the migration
// prepare of a full coordinate ring, with locations re-parsed from text
// as they arrive off the wire: nothing is applied and the epoch stays.
func TestImportReplayOfCoordinateRingAppliesNothing(t *testing.T) {
	src := multiFloorDB(t, 1)
	dst := multiFloorDB(t, 1)
	coordinateRing(t, src, "erin")
	rows, epoch, _ := src.ExportObject("erin")
	if len(rows) != maxReadingsPerObject {
		t.Fatalf("exported %d rows, want a full ring of %d", len(rows), maxReadingsPerObject)
	}
	if err := dst.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if !dst.ImportObject("erin", rows, epoch) {
		t.Fatal("first import should apply")
	}
	before, epochAfter, _ := dst.ExportObject("erin")

	replay := make([]model.Reading, len(rows))
	for i, r := range rows {
		r.Location = glob.MustParse(r.Location.String())
		replay[i] = r
	}
	if dst.ImportObject("erin", replay, epoch) {
		t.Fatal("replayed import of a coordinate ring applied rows")
	}
	after, epochNow, _ := dst.ExportObject("erin")
	if epochNow != epochAfter {
		t.Errorf("replay moved epoch %d -> %d", epochAfter, epochNow)
	}
	if !reflect.DeepEqual(after, before) {
		t.Errorf("replay changed the stored rows: %d -> %d", len(before), len(after))
	}
}

// TestHasReadingNeverMissesDuringFloorFlips pins that HasReading reads
// the object's rows atomically with its residence. While the object
// flips between two floors with InsertReadings, a reading stored before
// the flips must always be found: a miss here is a replayed forward
// stored twice. Each round stops before the held reading could leave
// the ring. One checker, not several: with more spinning goroutines
// than CPUs the flipper waits out scheduler slices for its locks.
func TestHasReadingNeverMissesDuringFloorFlips(t *testing.T) {
	const (
		rounds = 40
		flips  = maxReadingsPerObject - 2
	)
	db := multiFloorDB(t, 2)
	for _, s := range []string{"s1", "s2"} {
		if err := db.RegisterSensor(s, longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds && !t.Failed(); round++ {
		id := fmt.Sprintf("walker-%d", round)
		held := floorReading("s1", id, 1, 5, 5, t0)
		if err := db.InsertReading(held); err != nil {
			t.Fatal(err)
		}
		var done atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if !db.HasReading(held) {
					t.Errorf("round %d: HasReading missed a stored reading during a floor flip", round)
					return
				}
			}
		}()
		for k := 1; k <= flips; k++ {
			r := floorReading("s2", id, 1+k%2, 6, 6, t0.Add(time.Duration(k)*time.Millisecond))
			if _, err := db.InsertReadings([]model.Reading{r}, nil); err != nil {
				t.Error(err)
				break
			}
		}
		done.Store(true)
		wg.Wait()
	}
}
