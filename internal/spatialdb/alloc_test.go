//go:build !race

package spatialdb

import (
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// TestHasReadingMissAllocatesNothing pins the cost of the forwarded-
// ingest dedup on a new reading: a miss on a full coordinate ring walks
// the rows without copying one or formatting a location. Rows that
// share the probe's time (and here its sensor too) are the only ones
// whose locations are compared. Excluded under -race because the race
// runtime allocates inside atomics.
func TestHasReadingMissAllocatesNothing(t *testing.T) {
	db := multiFloorDB(t, 1)
	coordinateRing(t, db, "fay")
	miss := floorReading("s1", "fay", 1, 3, 3, t0.Add(time.Hour))
	if db.HasReading(miss) {
		t.Fatal("a reading never stored was found")
	}
	if n := testing.AllocsPerRun(200, func() { db.HasReading(miss) }); n != 0 {
		t.Errorf("HasReading miss on a %d-row ring: %v allocs/op, want 0", maxReadingsPerObject, n)
	}
}

// TestSupportCandidatesAllocatesOnce pins a region cut's candidate
// collection: the support trees carry each hit's record and a counting
// walk sizes the result, so a floor with hits costs one allocation and
// a region with none costs nothing.
func TestSupportCandidatesAllocatesOnce(t *testing.T) {
	db := cityDB(t, 16, 40)
	snap := db.Snapshot()
	defer snap.Close()
	for _, c := range []struct {
		region      geom.Rect
		hits, alloc int
	}{
		{geom.R(0, 100, 500, 200), 40, 1},  // floor 2
		{geom.R(400, 100, 500, 200), 0, 0}, // east of every object
	} {
		if n := len(snap.SupportCandidates(c.region)); n != c.hits {
			t.Fatalf("%v: %d candidates, want %d", c.region, n, c.hits)
		}
		if n := testing.AllocsPerRun(200, func() { snap.SupportCandidates(c.region) }); n != float64(c.alloc) {
			t.Errorf("SupportCandidates over %d hits: %v allocs/op, want %d", c.hits, n, c.alloc)
		}
	}
}

// TestResolveAllocatesNothing pins a resolution's cost: a coordinate
// GLOB is one route-table lookup keyed from a stack buffer and a
// symbolic one one object-table lookup keyed the same way, so neither
// allocates — whether the tuples read in a floor's frame or a room's
// own, and whether a reading's floor check passes by frame or object.
func TestResolveAllocatesNothing(t *testing.T) {
	db := resolveDB(t, resolveTree(t))
	for _, give := range []string{
		"CS/Floor1/(5,5)",                   // coordinate point
		"CS/Floor2/(1,1),(5,1),(5,5),(1,5)", // coordinate polygon
		"CS/Floor2/Lab/(2,3)",               // under a room with its own frame
		"CS/Depot/Bay/(2,3)",                // floor is an object, not a frame
		"CS/Floor1/3105",                    // symbolic room
	} {
		g := glob.MustParse(give)
		if _, err := db.ResolveGLOB(g); err != nil {
			t.Fatalf("%s: %v", give, err)
		}
		if n := testing.AllocsPerRun(200, func() { db.ResolveGLOB(g) }); n != 0 {
			t.Errorf("ResolveGLOB(%s): %v allocs/op, want 0", give, n)
		}
		r := model.Reading{SensorID: "s", MObjectID: "m", Location: g}
		if n := testing.AllocsPerRun(200, func() { db.resolveReading(r, model.SensorSpec{}) }); n != 0 {
			t.Errorf("resolveReading(%s): %v allocs/op, want 0", give, n)
		}
	}
}
