package spatialdb

import (
	"strings"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// checkSupportInvariant asserts the support-index contract on every
// stripe table (DESIGN.md §17):
//   - every tree entry's value is the record objs holds for its ID, so
//     no entry points at a record DropObject removed;
//   - an entry is present, once and with the record's sup rect, exactly
//     when the record is indexed, and a record is indexed exactly when
//     it has rows;
//   - the rect is a conservative superset of the bounding box of the
//     object's stored reading regions.
//
// Exactness is NOT required — trims keep the old union — but a missing
// or too-small rect would make SupportCandidates drop gate-passing
// objects.
func checkSupportInvariant(t *testing.T, db *DB) {
	t.Helper()
	for _, sh := range db.stripes {
		tbl := sh.table
		inTree := map[*objRec]bool{}
		for _, it := range tbl.support.All() {
			o := it.Value
			if tbl.objs[o.id] != o {
				t.Fatalf("stripe %s: tree entry for %s is not the record the table holds", sh.key, o.id)
			}
			if inTree[o] {
				t.Fatalf("stripe %s: %s has two tree entries", sh.key, o.id)
			}
			inTree[o] = true
			if !o.indexed || !it.Rect.Eq(o.sup) {
				t.Fatalf("stripe %s: %s entry %v, record indexed=%v sup %v", sh.key, o.id, it.Rect, o.indexed, o.sup)
			}
		}
		for id, o := range tbl.objs {
			if o.id != id {
				t.Fatalf("stripe %s: record %s filed under %s", sh.key, o.id, id)
			}
			if o.indexed != inTree[o] {
				t.Fatalf("stripe %s: %s indexed=%v but in tree=%v", sh.key, id, o.indexed, inTree[o])
			}
			if o.indexed != (len(o.rows) > 0) {
				t.Fatalf("stripe %s: %s has %d rows but indexed=%v", sh.key, id, len(o.rows), o.indexed)
			}
			if len(o.rows) == 0 {
				continue
			}
			u := o.rows[0].Region
			for _, r := range o.rows[1:] {
				u = u.Union(r.Region)
			}
			if !o.sup.ContainsRect(u) {
				t.Fatalf("stripe %s: %s support %v does not cover row bbox %v", sh.key, id, o.sup, u)
			}
		}
	}
}

// candidateIDs snapshots the database and returns the support
// candidates for region as a set.
func candidateIDs(db *DB, region geom.Rect) map[string]bool {
	snap := db.Snapshot()
	defer snap.Close()
	out := map[string]bool{}
	for _, c := range snap.SupportCandidates(region) {
		out[c.ID] = true
	}
	return out
}

func TestSupportIndexTracksMutations(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	spec := ubiSpec()
	spec.TTL = 10 * time.Second
	if err := db.RegisterSensor("s1", spec); err != nil {
		t.Fatal(err)
	}
	ingest := func(obj string, x, y float64, at time.Time) {
		t.Helper()
		err := db.InsertReading(model.Reading{
			SensorID:  "s1",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(x, y)),
			Time:      at,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Two objects at opposite ends of the floor.
	ingest("west", 10, 10, t0)
	ingest("east", 480, 80, t0)
	checkSupportInvariant(t, db)

	left := candidateIDs(db, geom.R(0, 0, 50, 50))
	if !left["west"] || left["east"] {
		t.Fatalf("left-region candidates = %v, want exactly {west}", left)
	}
	right := candidateIDs(db, geom.R(450, 50, 500, 100))
	if right["west"] || !right["east"] {
		t.Fatalf("right-region candidates = %v, want exactly {east}", right)
	}

	// A second reading grows the support to the union of both regions.
	ingest("west", 200, 50, t0.Add(time.Second))
	checkSupportInvariant(t, db)
	mid := candidateIDs(db, geom.R(150, 40, 250, 60))
	if !mid["west"] {
		t.Fatalf("mid-region candidates = %v, want west after its support grew", mid)
	}

	// TTL prune (via ReadingsFor) drops the whole object: the support
	// entry must go with the rows.
	if rows := db.ReadingsFor("west", t0.Add(time.Hour)); len(rows) != 0 {
		t.Fatalf("expected all of west's rows expired, got %d", len(rows))
	}
	checkSupportInvariant(t, db)
	if after := candidateIDs(db, geom.R(0, 0, 500, 100)); after["west"] {
		t.Fatal("west still a candidate after its rows expired")
	}

	// Matcher-based expiry recomputes the surviving support exactly.
	ingest("east", 20, 20, t0.Add(2*time.Second))
	db.ExpireReadings(t0.Add(3*time.Second), func(r model.Reading) bool {
		// Drop east's original far-corner reading, keep the new one.
		return r.MObjectID == "east" && r.Time.Equal(t0)
	})
	checkSupportInvariant(t, db)
	if ids := candidateIDs(db, geom.R(450, 50, 500, 100)); ids["east"] {
		t.Fatal("east still a far-corner candidate after that reading was expired")
	}
	if ids := candidateIDs(db, geom.R(0, 0, 50, 50)); !ids["east"] {
		t.Fatal("east lost its surviving reading's support")
	}
}

// TestSupportCandidatesSnapshotIsolation: candidates a cut collected
// never change when writers keep mutating the live table — neither the
// set nor a candidate's rows and epoch — while a fresh cut sees the
// writes.
func TestSupportCandidatesSnapshotIsolation(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	ingest := func(obj string, x, y float64, at time.Time) {
		t.Helper()
		err := db.InsertReading(model.Reading{
			SensorID:  "s1",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(x, y)),
			Time:      at,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	ingest("ann", 10, 10, t0)

	far := geom.R(450, 0, 500, 100)
	snap := db.Snapshot()
	farCands, near := snap.SupportCandidates(far), snap.SupportCandidates(geom.R(0, 0, 20, 20))
	snap.Close()
	if len(farCands) != 0 || len(near) != 1 || near[0].ID != "ann" {
		t.Fatalf("cut candidates: far %v, near %v; want none and ann", farCands, near)
	}
	ann, annEpoch := near[0], near[0].Epoch()

	// Grow ann's support to the far corner and add a new object after
	// the cut.
	ingest("ann", 480, 80, t0.Add(time.Second))
	ingest("late", 480, 10, t0.Add(time.Second))
	checkSupportInvariant(t, db)

	if got := ann.LatestPerSensor(snap.SensorSpecs(), t0); len(got) != 1 || !got[0].Time.Equal(t0) {
		t.Fatalf("collected candidate sees post-cut rows: %v", got)
	}
	if ann.Epoch() != annEpoch || db.ReadingEpoch("ann") <= annEpoch {
		t.Fatalf("collected epoch %d (was %d), live %d: want it fixed and the live one ahead", ann.Epoch(), annEpoch, db.ReadingEpoch("ann"))
	}
	if now := candidateIDs(db, far); !now["ann"] || !now["late"] {
		t.Fatalf("fresh snapshot candidates = %v, want {ann, late}", now)
	}
}

// rowBounds is the bounding box of the object's stored row regions.
func rowBounds(o *objRec) geom.Rect {
	u := o.rows[0].Region
	for _, r := range o.rows[1:] {
		u = u.Union(r.Region)
	}
	return u
}

// TestSupportIndexFollowsFloorMigration moves an object between floors
// and checks its support: the record stays in its stripe, one entry,
// and the floor change recomputes the rect exactly, so it still covers
// the previous floor's row — a support can straddle floors and a
// floor-1 query still sees the object.
func TestSupportIndexFollowsFloorMigration(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "mover", 1, 100, 50, t0)); err != nil {
		t.Fatal(err)
	}
	rec := db.stripeFor("mover").table.objs["mover"]
	if err := db.InsertReading(floorReading("s1", "mover", 2, 100, 50, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	checkSupportInvariant(t, db)

	tbl := db.stripeFor("mover").table
	if o := tbl.objs["mover"]; o != rec {
		t.Fatal("a floor change replaced the object's record")
	}
	if n := tbl.support.Len(); n != 1 {
		t.Fatalf("stripe support tree has %d entries, want 1", n)
	}
	if want := rowBounds(rec); !rec.sup.Eq(want) {
		t.Fatalf("support after the floor change = %v, want the rows' bbox %v", rec.sup, want)
	}
	if ids := candidateIDs(db, geom.R(0, 0, 500, 100)); !ids["mover"] {
		t.Fatal("floor-1 query lost the object's old-floor support")
	}
}

// TestSupportResetsOnFloorChange walks one object along floor 1 until
// the ring trim has dropped its first rows, across to floor 2, along
// it, and back. Inside a floor the support only grows, so it keeps the
// trimmed rows' area; every floor change must recompute it to exactly
// the bounding box of the stored rows. A store that only unions at a
// floor change keeps the first floor's trimmed extent and fails.
func TestSupportResetsOnFloorChange(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	at := t0
	// walk stores n readings on the floor, 5 m apart eastward from x0.
	walk := func(floor, n int, x0 float64) {
		t.Helper()
		for i := 0; i < n; i++ {
			at = at.Add(time.Second)
			if err := db.InsertReading(floorReading("s1", "walker", floor, x0+float64(5*i), 50, at)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec := func() *objRec { return db.stripeFor("walker").table.objs["walker"] }
	walk(1, maxReadingsPerObject+20, 0) // x 0..415: the ring drops x < 100
	if o := rec(); !o.sup.ContainsRect(rowBounds(o)) || o.sup.Eq(rowBounds(o)) {
		t.Fatalf("after the floor-1 walk: support %v, rows %v; want a strict superset", o.sup, rowBounds(o))
	}
	for leg, floor := range []int{2, 1, 2} {
		walk(floor, 1, 400) // the floor change, at the east end
		checkSupportInvariant(t, db)
		o := rec()
		if want := rowBounds(o); !o.sup.Eq(want) {
			t.Fatalf("leg %d, onto floor %d: support %v, want the rows' bbox %v", leg, floor, o.sup, want)
		}
		walk(floor, maxReadingsPerObject/2, 0)
	}
}

// TestSupportIndexFederationImportDrop drives the cross-daemon
// migration primitives and checks the index on both sides.
func TestSupportIndexFederationImportDrop(t *testing.T) {
	src := multiFloorDB(t, 2)
	dst := multiFloorDB(t, 2)
	for _, db := range []*DB{src, dst} {
		if err := db.RegisterSensor("s1", longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.InsertReading(floorReading("s1", "nomad", 1, 50, 50, t0)); err != nil {
		t.Fatal(err)
	}
	rows, epoch, ok := src.ExportObject("nomad")
	if !ok {
		t.Fatal("export failed")
	}
	if !dst.ImportObject("nomad", rows, epoch) {
		t.Fatal("import applied nothing")
	}
	checkSupportInvariant(t, dst)
	if ids := candidateIDs(dst, geom.R(0, 0, 500, 100)); !ids["nomad"] {
		t.Fatal("imported object not indexed on the destination")
	}
	if !src.DropObject("nomad", epoch) {
		t.Fatal("drop refused")
	}
	checkSupportInvariant(t, src)
	if ids := candidateIDs(src, geom.R(0, 0, 500, 100)); ids["nomad"] {
		t.Fatal("dropped object still indexed on the source")
	}
}

// TestSupportSurvivesRingTrim fills an object past the per-object row
// cap: the ring-buffer trim keeps the stored support a (possibly
// stale-covering) superset of the surviving rows, and the object stays
// exactly one R-tree entry.
func TestSupportSurvivesRingTrim(t *testing.T) {
	db := testDB(t)
	paperFloor(t, db)
	if err := db.RegisterSensor("s1", ubiSpec()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*maxReadingsPerObject; i++ {
		err := db.InsertReading(model.Reading{
			SensorID:  "s1",
			MObjectID: "walker",
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"),
				geom.Pt(float64(i%400), 10)),
			Time: t0.Add(time.Duration(i) * time.Second),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	checkSupportInvariant(t, db)
	tbl := db.stripeFor("walker").table
	if tbl.support.Len() != 1 {
		t.Fatalf("support tree has %d entries, want 1", tbl.support.Len())
	}
	if n := len(tbl.rowsOf("walker")); n > maxReadingsPerObject {
		t.Fatalf("trim failed: %d rows stored", n)
	}
	if ids := candidateIDs(db, geom.R(0, 0, 500, 100)); !ids["walker"] {
		t.Fatal("walker lost its support entry across trims")
	}
}

// TestPruneKeepsRecordAndEpoch empties an object by TTL, through
// either prune path. Its record and epoch stay, so a returning reading
// continues the epoch: one restarted at 0 could meet a fusion cached
// under the same (object, epoch, sensor generation). Every listing of
// mobile objects leaves the empty record out.
func TestPruneKeepsRecordAndEpoch(t *testing.T) {
	for _, c := range []struct {
		name  string
		prune func(db *DB, now time.Time)
	}{
		{"ReadingsFor", func(db *DB, now time.Time) { db.ReadingsFor("ghost", now) }},
		{"ExpireReadings", func(db *DB, now time.Time) { db.ExpireReadings(now, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := multiFloorDB(t, 1)
			short := longSpec()
			short.TTL = 10 * time.Second
			if err := db.RegisterSensor("s1", short); err != nil {
				t.Fatal(err)
			}
			if err := db.RegisterSensor("s2", longSpec()); err != nil {
				t.Fatal(err)
			}
			for i, r := range []model.Reading{
				floorReading("s1", "ghost", 1, 10, 10, t0),
				floorReading("s1", "ghost", 1, 20, 10, t0.Add(time.Second)),
				floorReading("s2", "stay", 1, 30, 10, t0),
			} {
				if err := db.InsertReading(r); err != nil {
					t.Fatalf("reading %d: %v", i, err)
				}
			}
			before := db.ReadingEpoch("ghost")
			later := t0.Add(time.Hour)
			c.prune(db, later)
			checkSupportInvariant(t, db)

			if e := db.ReadingEpoch("ghost"); e != before {
				t.Fatalf("epoch after the prune = %d, want %d kept", e, before)
			}
			if ids := db.MobileObjects(); len(ids) != 1 || ids[0] != "stay" {
				t.Fatalf("MobileObjects = %v, want [stay]", ids)
			}
			snap := db.Snapshot()
			cands := snap.MobileObjects()
			snap.Close()
			if len(cands) != 1 || cands[0].ID != "stay" {
				t.Fatalf("Snapshot.MobileObjects = %v, want stay alone", cands)
			}
			var sum ShardStat
			for _, st := range db.ShardStats() {
				sum.MobileObjects += st.MobileObjects
				sum.Readings += st.Readings
				sum.SupportRects += st.SupportRects
			}
			if sum.MobileObjects != 1 || sum.Readings != 1 || sum.SupportRects != 1 {
				t.Fatalf("ShardStats sum to %+v, want 1 mobile object, 1 reading, 1 support rect", sum)
			}
			if strings.Contains(db.DumpReadingTable(), "ghost") {
				t.Fatal("the reading table dump lists the emptied object")
			}

			if err := db.InsertReading(floorReading("s1", "ghost", 1, 40, 10, later)); err != nil {
				t.Fatal(err)
			}
			checkSupportInvariant(t, db)
			if e := db.ReadingEpoch("ghost"); e <= before {
				t.Fatalf("epoch after the return = %d, want above %d", e, before)
			}
		})
	}
}
