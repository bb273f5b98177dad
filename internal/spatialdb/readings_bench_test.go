package spatialdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// BenchmarkInsertReadingAtCap measures the steady-state ingest cost
// for an object already holding maxReadingsPerObject rows, where every
// insert trims the oldest row. The ring-buffer trim makes this an O(1)
// amortized reslice-and-append (one array re-base per ~cap inserts)
// instead of the old copy-everything-every-insert behavior.
func BenchmarkInsertReadingAtCap(b *testing.B) {
	tb := testing.TB(b)
	db := multiFloorDB(tb, 1)
	spec := longSpec()
	if err := db.RegisterSensor("s1", spec); err != nil {
		b.Fatal(err)
	}
	at := t0
	mk := func(i int) model.Reading {
		return model.Reading{
			SensorID:  "s1",
			MObjectID: "cap",
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor1"),
				geom.Pt(float64(i%400), 10)),
			Time: at.Add(time.Duration(i) * time.Millisecond),
		}
	}
	for i := 0; i < maxReadingsPerObject; i++ {
		if err := db.InsertReading(mk(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.InsertReading(mk(maxReadingsPerObject + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBesideScanners measures a cross-floor ingest batch
// while region-scan clients cut the database back to back: each
// scanner loops Snapshot, SupportCandidates over half a floor (about
// 100 hits) and Close, never pausing. A store waits for the cuts that
// hold its shard, so this is the cost a scan-heavy client puts on
// ingest. scans/op is how many cuts the scanners completed per batch.
func BenchmarkInsertBesideScanners(b *testing.B) {
	const (
		floors  = 4
		objects = 200 // per floor
	)
	for _, scanners := range []int{0, 1, 4} {
		b.Run(fmt.Sprintf("scanners=%d", scanners), func(b *testing.B) {
			db := cityDB(b, floors, objects)
			region := geom.R(0, 100, 250, 200) // west half of floor 2
			stop := make(chan struct{})
			var scans atomic.Int64
			var wg sync.WaitGroup
			for s := 0; s < scanners; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						snap := db.Snapshot()
						snap.SupportCandidates(region)
						snap.Close()
						scans.Add(1)
					}
				}()
			}
			// Batch i moves two objects per floor, the same ones as batch
			// i%objects, so no ID is formatted while the timer runs.
			batches := make([][]model.Reading, objects)
			for i := range batches {
				batches[i] = make([]model.Reading, 2*floors)
				for j := range batches[i] {
					f := j%floors + 1
					batches[i][j] = floorReading("s1", fmt.Sprintf("f%d-o%d", f, (i*7+j)%objects), f, float64(j)*5, 10, t0)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch := batches[i%objects]
				at := t0.Add(time.Duration(i+1) * time.Millisecond)
				for j := range batch {
					batch[j].Time = at
				}
				if _, err := db.InsertReadings(batch, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
			b.ReportMetric(float64(scans.Load())/float64(b.N), "scans/op")
		})
	}
}

// cityDB returns a database of floors floors with perFloor objects on
// each, one reading apiece: object o of floor f is "f<f>-o<o>" at
// local (o%100*5, o/100*50+10), so a floor's objects stay clear of the
// floors beside it.
func cityDB(tb testing.TB, floors, perFloor int) *DB {
	tb.Helper()
	db := multiFloorDB(tb, floors)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		tb.Fatal(err)
	}
	for f := 1; f <= floors; f++ {
		for o := 0; o < perFloor; o++ {
			r := floorReading("s1", fmt.Sprintf("f%d-o%d", f, o), f, float64(o%100)*5, float64(o/100)*50+10, t0)
			if err := db.InsertReading(r); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkRegionCut measures a floor query's cut on a 16-floor city of
// 40 objects per floor: Snapshot, SupportCandidates over floor 2 (40
// hits) and Close — what a region query holds every shard's read lock
// for.
func BenchmarkRegionCut(b *testing.B) {
	db := cityDB(b, 16, 40)
	floor2 := geom.R(0, 100, 500, 200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := db.Snapshot()
		if n := len(snap.SupportCandidates(floor2)); n != 40 {
			b.Fatalf("%d candidates, want 40", n)
		}
		snap.Close()
	}
}
