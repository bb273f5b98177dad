//go:build !race

package spatialdb

import (
	"testing"
	"time"
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
