package spatialdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// latestPerSensorRef is the map-building reduction LatestPerSensor used
// before latestRows, kept as the reference: newest TTL-filtered row per
// sensor (earlier-stored wins a tie), sorted by sensor ID.
func latestPerSensorRef(rows []model.Reading) []model.Reading {
	latest := make(map[string]model.Reading, len(rows))
	for _, r := range rows {
		if cur, ok := latest[r.SensorID]; !ok || r.Time.After(cur.Time) {
			latest[r.SensorID] = r
		}
	}
	out := make([]model.Reading, 0, len(latest))
	for _, r := range latest {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SensorID < out[j].SensorID })
	return out
}

func sameRows(a, b []model.Reading) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}

// candidateFor returns id's candidate at the cut, or one without rows
// when the object had none. The snapshot must be open.
func candidateFor(snap *Snapshot, id string) Candidate {
	for _, c := range snap.MobileObjects() {
		if c.ID == id {
			return c
		}
	}
	return Candidate{ID: id}
}

// snapRows returns id's raw rows at the cut.
func snapRows(snap *Snapshot, id string) []model.Reading {
	return candidateFor(snap, id).rows
}

// snapLive returns id's rows at the cut that are unexpired at now under
// the captured sensor TTLs.
func snapLive(snap *Snapshot, id string, now time.Time) []model.Reading {
	var live []model.Reading
	for _, r := range snapRows(snap, id) {
		if spec, ok := snap.SensorSpecs()[r.SensorID]; ok && !r.Expired(now, spec.TTL) {
			live = append(live, r)
		}
	}
	return live
}

// randomRing draws up to maxReadingsPerObject rows for one object from
// sensors s0..s4 (TTLs 2 s, 5 s, 1 min) and the unregistered "ghost":
// runs of one sensor and switches, times out of order on a half-second
// grid so ties and expired rows are common, and a region unique to
// each row so that which of two tied rows won is visible.
func randomRing(rng *rand.Rand, obj string, now time.Time) []model.Reading {
	sensors := []string{"s0", "s1", "s2", "s3", "s4", "ghost"}
	n := rng.Intn(maxReadingsPerObject + 1)
	rows := make([]model.Reading, n)
	sensor := sensors[rng.Intn(len(sensors))]
	for i := range rows {
		if rng.Intn(2) == 0 {
			sensor = sensors[rng.Intn(len(sensors))]
		}
		rows[i] = model.Reading{
			SensorID:  sensor,
			MObjectID: obj,
			Location:  glob.MustParse(fmt.Sprintf("CS/Floor1/(%d,1)", i)),
			Region:    geom.R(float64(i), 0, float64(i)+1, 1),
			Time:      now.Add(-time.Duration(rng.Intn(16)) * 500 * time.Millisecond),
		}
	}
	return rows
}

func registerRingSensors(t testing.TB, db *DB) {
	t.Helper()
	for i, ttl := range []time.Duration{2 * time.Second, 5 * time.Second, time.Minute, 2 * time.Second, time.Minute} {
		spec := longSpec()
		spec.TTL = ttl
		if err := db.RegisterSensor(fmt.Sprintf("s%d", i), spec); err != nil {
			t.Fatal(err)
		}
	}
}

// plantRows stores rows as obj's ring on floor 1 without going through
// InsertReadings, which would refuse the unregistered sensor.
func plantRows(db *DB, obj string, rows []model.Reading) {
	sh := db.ensureShard("CS/Floor1")
	sh.readMu.Lock()
	sh.table.rec(obj).rows = rows
	sh.readMu.Unlock()
	db.residence.Store(obj, sh)
}

// TestLatestPerSensorMatchesReference pins the one-pass reduction to
// what it replaced, latestPerSensor(ReadingsFor(...)), on the live path
// (including the prune it falls back to) and on a snapshot candidate.
func TestLatestPerSensorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	db := multiFloorDB(t, 1)
	registerRingSensors(t, db)
	now := t0.Add(time.Hour)
	for round := 0; round < 300; round++ {
		obj := fmt.Sprintf("p%d", round)
		rows := randomRing(rng, obj, now)
		plantRows(db, obj, rows)

		snap := db.Snapshot()
		c := candidateFor(snap, obj)
		if got, want := c.LatestPerSensor(snap.SensorSpecs(), now), latestPerSensorRef(snapLive(snap, obj, now)); !sameRows(got, want) {
			t.Fatalf("round %d snapshot:\n got  %v\n want %v\n rows %v", round, got, want, rows)
		}
		snap.Close()

		// Live: the pass runs on the unpruned ring first, the reference
		// second (ReadingsFor prunes what the pass skipped).
		got := db.LatestPerSensor(obj, now)
		if want := latestPerSensorRef(db.ReadingsFor(obj, now)); !sameRows(got, want) {
			t.Fatalf("round %d live:\n got  %v\n want %v\n rows %v", round, got, want, rows)
		}
		if again := db.LatestPerSensor(obj, now); !sameRows(again, got) {
			t.Fatalf("round %d: answer changed after the prune:\n was %v\n now %v", round, got, again)
		}
	}
}

// TestLatestPerSensorAllocations bounds the fusion-input path on a full
// ring: the winners' output slice and nothing proportional to the ring.
func TestLatestPerSensorAllocations(t *testing.T) {
	db := multiFloorDB(t, 1)
	registerRingSensors(t, db)
	now := t0.Add(time.Hour)
	for i := 0; i < maxReadingsPerObject+10; i++ {
		r := floorReading(fmt.Sprintf("s%d", 2+2*(i%2)), "full", 1, float64(i), 1, now.Add(-time.Duration(i)*time.Millisecond))
		if err := db.InsertReading(r); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot()
	c, specs := candidateFor(snap, "full"), snap.SensorSpecs()
	snap.Close()
	if n := len(c.rows); n != maxReadingsPerObject {
		t.Fatalf("ring holds %d rows, want %d", n, maxReadingsPerObject)
	}
	var sink []model.Reading
	if a := testing.AllocsPerRun(100, func() { sink = db.LatestPerSensor("full", now) }); a > 2 {
		t.Errorf("live LatestPerSensor: %v allocs per call, want <= 2", a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = c.LatestPerSensor(specs, now) }); a > 2 {
		t.Errorf("snapshot LatestPerSensor: %v allocs per call, want <= 2", a)
	}
	if len(sink) != 2 {
		t.Fatalf("latest = %v, want one row for each of two sensors", sink)
	}
}

// TestPinnedSnapshotRowsSurviveRingWrites is the single-writer
// invariant of readTable under -race: rows a cut collected stay
// bit-identical while the live ring slides and re-bases under 300
// further inserts, cuts in between, and a floor migration that hands
// the array to another shard. Each cut is closed as soon as its
// candidate is collected, as a region scan closes it; a reader compares
// the first candidate throughout, so a write into a collected slot is
// also a detected race.
func TestPinnedSnapshotRowsSurviveRingWrites(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	insert := func(i, floor int) {
		t.Helper()
		if err := db.InsertReading(floorReading("s1", "walker", floor, float64(i%400), 1,
			t0.Add(time.Duration(i)*time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	type pin struct {
		c    Candidate
		want []model.Reading
	}
	pinNow := func() pin {
		s := db.Snapshot()
		defer s.Close()
		c := candidateFor(s, "walker")
		return pin{c, append([]model.Reading(nil), c.rows...)}
	}
	// Fill the ring past the cap so the pinned slice starts mid-array.
	n := 0
	for ; n < maxReadingsPerObject+6; n++ {
		insert(n, 1)
	}
	pins := []pin{pinNow()}
	if len(pins[0].want) != maxReadingsPerObject {
		t.Fatalf("pinned %d rows, want a full ring", len(pins[0].want))
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	first := pins[0]
	go func() {
		defer close(done)
		for {
			if !reflect.DeepEqual(first.c.rows, first.want) {
				t.Error("pinned rows changed while the ring was written")
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	for i := 0; i < 300; i++ {
		floor := 1
		if i >= 150 {
			floor = 2 // i == 150 migrates the rows to the other shard
		}
		insert(n+i, floor)
		switch {
		case i%50 == 25:
			pins = append(pins, pinNow())
		case i%7 == 0:
			db.Snapshot().Close()
		}
	}
	close(stop)
	<-done
	for i, p := range pins {
		if !reflect.DeepEqual(p.c.rows, p.want) {
			t.Errorf("pin %d: rows differ from what the cut collected", i)
		}
	}
	if key, _ := db.ObjectShardKey("walker"); key != "CS/Floor2" {
		t.Fatalf("walker resident on %q, want the migration to CS/Floor2", key)
	}
}

// TestShardFiringRowsStable: a trigger firing carries the object's rows
// exactly as its own reading's append left them — within a batch, the
// first reading's firing does not see the second — and a held Rows
// header stays element-wise equal while a concurrent inserter drives
// the ring past its cap (trim and re-base) and TTL prunes install
// fresh slices. The race detector also reports any write into a held
// slot.
func TestShardFiringRowsStable(t *testing.T) {
	db := multiFloorDB(t, 1)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	short := longSpec()
	short.TTL = time.Minute
	if err := db.RegisterSensor("s2", short); err != nil {
		t.Fatal(err)
	}
	// Fill the ring past its cap first, so the held headers share their
	// backing array with the appends that follow.
	for i := 0; i < maxReadingsPerObject+6; i++ {
		if err := db.InsertReading(floorReading("s1", "walker", 1, float64(i), 1,
			t0.Add(time.Duration(i-100)*time.Millisecond))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.AddTrigger("t", "walker", geom.R(0, 0, 500, 100)); err != nil {
		t.Fatal(err)
	}
	var rec recorder
	if _, err := db.InsertReadings([]model.Reading{
		floorReading("s2", "walker", 1, 10, 10, t0),
		floorReading("s1", "walker", 1, 20, 10, t0.Add(time.Millisecond)),
	}, rec.dispatch); err != nil {
		t.Fatal(err)
	}
	events := rec.take()
	if len(events) != 2 {
		t.Fatalf("batch fired %d events, want 2", len(events))
	}
	first, second := events[0], events[1]
	n1, n2 := len(first.Rows), len(second.Rows)
	if n1 < 1 || n2 < 2 {
		t.Fatalf("firings hold %d and %d rows", n1, n2)
	}
	if !reflect.DeepEqual(first.Rows[n1-1], first.Reading) {
		t.Errorf("first firing's rows end at %+v, want its own reading", first.Rows[n1-1])
	}
	if !reflect.DeepEqual(second.Rows[n2-2:], []model.Reading{first.Reading, second.Reading}) {
		t.Errorf("second firing's rows end at %+v, want both readings", second.Rows[n2-2:])
	}
	if first.Epoch+1 != second.Epoch || second.Epoch != db.ReadingEpoch("walker") {
		t.Errorf("epochs %d, %d (live %d), want consecutive ending at the live epoch",
			first.Epoch, second.Epoch, db.ReadingEpoch("walker"))
	}
	held := []firing{first, second}
	want := [][]model.Reading{
		append([]model.Reading(nil), first.Rows...),
		append([]model.Reading(nil), second.Rows...),
	}
	check := func(when string) {
		for i, ev := range held {
			if !reflect.DeepEqual(ev.Rows, want[i]) {
				t.Errorf("%s: firing %d's rows changed", when, i)
			}
		}
	}

	// Every fifth reading is from the short-TTL sensor, so a prune at
	// an hour past t0 always has rows to drop.
	const further = 3 * maxReadingsPerObject
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < further; i++ {
			sensor := "s1"
			if i%5 == 0 {
				sensor = "s2"
			}
			if err := db.InsertReading(floorReading(sensor, "walker", 1, float64(30+i), 10,
				t0.Add(time.Duration(2+i)*time.Millisecond))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	later := t0.Add(time.Hour)
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		check("during inserts")
		db.ReadingsFor("walker", later) // prunes the expired s2 rows
	}
	for _, r := range db.ReadingsFor("walker", later) {
		if r.SensorID == "s2" {
			t.Fatalf("expired row %+v survived the prune", r)
		}
	}
	check("after inserts and prune")
}
