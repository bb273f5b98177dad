package spatialdb

import (
	"errors"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

func TestReadingEpochAndGenerations(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	sg := db.SensorGeneration()
	og := db.ObjectGeneration()
	if db.ReadingEpoch("bob") != 0 {
		t.Error("fresh object should be at epoch 0")
	}
	r := model.Reading{SensorID: "s1", MObjectID: "bob",
		Location: glob.MustParse("CS/Floor3/(50,50)"), Time: t0}
	if err := db.InsertReading(r); err != nil {
		t.Fatal(err)
	}
	if got := db.ReadingEpoch("bob"); got != 1 {
		t.Errorf("epoch after insert = %d, want 1", got)
	}
	if db.ReadingEpoch("alice") != 0 {
		t.Error("insert for bob must not bump alice's epoch")
	}
	// Forced expiry (a live row removed) bumps the epoch; natural TTL
	// aging does not need to, since age is part of the cache key.
	db.ExpireReadings(t0, func(model.Reading) bool { return true })
	if got := db.ReadingEpoch("bob"); got != 2 {
		t.Errorf("epoch after forced expiry = %d, want 2", got)
	}
	if db.SensorGeneration() == sg {
		// RegisterSensor above ran before sg was read; register another.
		t.Log("sensor generation unchanged so far (expected)")
	}
	if err := db.RegisterSensor("s2", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	if db.SensorGeneration() <= sg {
		t.Error("RegisterSensor must bump the sensor generation")
	}
	if err := db.InsertObject(roomObject("3199",
		geom.Pt(400, 0), geom.Pt(420, 0), geom.Pt(420, 30), geom.Pt(400, 30))); err != nil {
		t.Fatal(err)
	}
	if db.ObjectGeneration() <= og {
		t.Error("InsertObject must bump the object generation")
	}
}

func TestSensorSnapshot(t *testing.T) {
	db := testDB(t)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	specs, gen := db.SensorSnapshot()
	if len(specs) != 1 || gen != db.SensorGeneration() {
		t.Fatalf("snapshot = %d specs at gen %d", len(specs), gen)
	}
	// The snapshot is a copy: mutating it must not affect the registry.
	delete(specs, "s1")
	if _, err := db.SensorSpec("s1"); err != nil {
		t.Error("registry lost a sensor through a snapshot mutation")
	}
	if err := db.RegisterSensor("s2", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	specs2, gen2 := db.SensorSnapshot()
	if len(specs2) != 2 || gen2 <= gen {
		t.Errorf("snapshot after register = %d specs at gen %d (was %d)", len(specs2), gen2, gen)
	}
}

func TestInsertReadingsBatch(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	rs := []model.Reading{
		{SensorID: "s1", MObjectID: "bob", Location: glob.MustParse("CS/Floor3/(50,50)"), Time: t0},
		{SensorID: "zz", MObjectID: "bob", Location: glob.MustParse("CS/Floor3/(51,50)"), Time: t0},
		{SensorID: "s1", MObjectID: "alice", Location: glob.MustParse("CS/Floor3/(52,50)"), Time: t0},
	}
	n, err := db.InsertReadings(rs, nil)
	if n != 2 {
		t.Errorf("stored %d readings, want 2", n)
	}
	if !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("batch error = %v, want ErrUnknownSensor", err)
	}
	if got := db.ReadingEpoch("bob"); got != 1 {
		t.Errorf("bob epoch = %d, want 1", got)
	}
	if got := db.ReadingEpoch("alice"); got != 1 {
		t.Errorf("alice epoch = %d, want 1", got)
	}
	if got := len(db.ReadingsFor("bob", t0)); got != 1 {
		t.Errorf("bob has %d readings, want 1", got)
	}
}

// TestInsertReadingsTriggerParity checks that a batch hands its
// Dispatcher the same trigger matches, in the same per-object order,
// as the same readings inserted one at a time.
func TestInsertReadingsTriggerParity(t *testing.T) {
	rs := []model.Reading{
		{SensorID: "s1", MObjectID: "bob", Location: glob.MustParse("CS/Floor3/3105/(5,5)"), Time: t0},
		{SensorID: "s1", MObjectID: "alice", Location: glob.MustParse("CS/Floor3/(50,50)"), Time: t0.Add(time.Millisecond)},
	}
	run := func(batched bool) []string {
		db := testDB(t)
		paperFloor(t, db)
		if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
			t.Fatal(err)
		}
		if err := db.AddTrigger("t-room", "", geom.R(330, 0, 350, 30)); err != nil {
			t.Fatal(err)
		}
		if err := db.AddTrigger("t-alice", "alice", geom.R(0, 0, 500, 100)); err != nil {
			t.Fatal(err)
		}
		var rec recorder
		entries := 0
		dispatch := func(stored []StoredReading) {
			entries += len(stored)
			rec.dispatch(stored)
		}
		if batched {
			if _, err := db.InsertReadings(rs, dispatch); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range rs {
				if _, err := db.InsertReadings([]model.Reading{r}, dispatch); err != nil {
					t.Fatal(err)
				}
			}
		}
		if entries != len(rs) {
			t.Errorf("batched=%v: dispatcher got %d stored readings, want %d", batched, entries, len(rs))
		}
		var ids []string
		for _, ev := range rec.take() {
			ids = append(ids, ev.trigger+"/"+ev.Reading.MObjectID)
		}
		return ids
	}
	serialIDs, batchIDs := run(false), run(true)
	if len(serialIDs) != 2 || len(batchIDs) != 2 {
		t.Fatalf("firings: serial %v, batched %v", serialIDs, batchIDs)
	}
	for i := range serialIDs {
		if serialIDs[i] != batchIDs[i] {
			t.Errorf("firing %d: serial %s != batched %s", i, serialIDs[i], batchIDs[i])
		}
	}
}

func TestInsertReadingsEmptyAndAllBad(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if n, err := db.InsertReadings(nil, nil); n != 0 || err != nil {
		t.Errorf("empty batch = %d, %v", n, err)
	}
	rs := []model.Reading{
		{SensorID: "zz", MObjectID: "bob", Location: glob.MustParse("CS/Floor3/(50,50)"), Time: t0},
		{SensorID: "zz", MObjectID: "eve", Location: glob.MustParse("CS/Floor3/(51,50)"), Time: t0},
	}
	n, err := db.InsertReadings(rs, nil)
	if n != 0 || err == nil {
		t.Errorf("all-bad batch = %d, %v", n, err)
	}
	if !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("joined error lost the cause: %v", err)
	}
}
