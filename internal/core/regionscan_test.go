package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/spatialdb"
)

// exhaustiveRegionScan is the uncached reference for objectsInRegionOn:
// every object with rows at the cut, fused straight from its rows with
// no cache entry and no support index, then gated on the bounding box
// of its fusion readings.
func exhaustiveRegionScan(snap *spatialdb.Snapshot, all []spatialdb.Candidate, rect geom.Rect, minProb float64, now time.Time) map[string]float64 {
	specs := snap.SensorSpecs()
	out := make(map[string]float64)
	for _, c := range all {
		readings := fusion.FromReadings(c.LatestPerSensor(specs, now), specs, now, snap.Universe().Area())
		if sup, ok := fusion.SupportBounds(readings); !ok || !sup.Intersects(rect) {
			continue
		}
		if p := fusion.ProbRegion(snap.Universe(), readings, rect); p >= minProb && p > 0 {
			out[c.ID] = p
		}
	}
	return out
}

// scanService is a three-floor building whose region scans fan out
// over a two-worker pool.
func scanService(t *testing.T) (*Service, *testClock) {
	t.Helper()
	clock := &testClock{now: t0}
	s, err := New(building.MultiStorey("C", 3, 2, 3, 12, 10, 5), WithClock(clock.Now), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("ubi", spec); err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func floorReading(obj string, floor int, x, y float64, at time.Time) model.Reading {
	return model.Reading{
		SensorID:  "ubi",
		MObjectID: obj,
		Location:  glob.CoordinatePoint(glob.MustParse(fmt.Sprintf("C/F%d", floor)), geom.Pt(x, y)),
		Time:      at,
	}
}

// TestRegionScanCandidateOrderIndependent: SupportCandidates promises
// no order, so the region scans must not depend on one. Shuffled
// candidate lists give a cell-identical heatmap and an identical
// ObjectsInRegion map, with the candidates fanned out over the pool.
func TestRegionScanCandidateOrderIndependent(t *testing.T) {
	s, clock := scanService(t)
	rng := rand.New(rand.NewSource(37))
	var batch []model.Reading
	for i := 0; i < 40; i++ {
		batch = append(batch, floorReading(fmt.Sprintf("p%02d", i), rng.Intn(2), rng.Float64()*36, rng.Float64()*28, t0))
	}
	if err := s.IngestBatchLocal(batch); err != nil {
		t.Fatal(err)
	}
	snap := s.db.Snapshot()
	defer snap.Close()
	now := clock.Now()
	uni := s.db.Universe()
	floorH := uni.Height() / 3
	for _, rect := range []geom.Rect{uni, geom.R(uni.Min.X, uni.Min.Y, uni.Max.X, uni.Min.Y+floorH), geom.R(uni.Min.X, floorH-8, uni.Max.X, floorH+8)} {
		base := snap.SupportCandidates(rect)
		if len(base) < parallelFanThreshold {
			t.Fatalf("region %v: %d candidates, too few to fan out", rect, len(base))
		}
		wantHeat := s.heatmapOn(snap, rect, 4, 5, now, slices.Clone(base))
		wantObjs := s.objectsInRegionOn(snap, rect, 0.1, now, slices.Clone(base))
		for trial := 0; trial < 8; trial++ {
			shuffled := slices.Clone(base)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			sameGrid(t, fmt.Sprintf("region %v trial %d", rect, trial), wantHeat, s.heatmapOn(snap, rect, 4, 5, now, shuffled))
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := s.objectsInRegionOn(snap, rect, 0.1, now, shuffled); !reflect.DeepEqual(got, wantObjs) {
				t.Fatalf("region %v trial %d: ObjectsInRegion = %v, want %v", rect, trial, got, wantObjs)
			}
		}
	}
}

// TestRegionScanDuringIngestAndMigration runs region scans on the pool
// while a writer ingests batches whose objects flip floors, migrating
// their rows between shards. Every scan must equal the uncached
// exhaustive evaluation of the same snapshot: a candidate carries its
// rows and epoch from the cut, and the scan fuses after the snapshot is
// closed, never reading a table a migration or an append is changing,
// which -race would report.
func TestRegionScanDuringIngestAndMigration(t *testing.T) {
	s, clock := scanService(t)
	const movers = 24
	uni := s.db.Universe()
	floorH := uni.Height() / 3
	stop := make(chan struct{})
	var batches atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			batch := make([]model.Reading, 0, 8)
			for j := 0; j < 8; j++ {
				// Each pass over the movers moves every one a floor up.
				n := i*8 + j
				batch = append(batch, floorReading(fmt.Sprintf("m%02d", n%movers), n/movers%3,
					rng.Float64()*36, rng.Float64()*28, t0.Add(time.Duration(n)*time.Millisecond)))
			}
			if err := s.IngestBatch(batch); err != nil {
				t.Error(err)
				return
			}
			batches.Add(1)
		}
	}()

	// The clock stays put, so scan and reference fuse at the same now.
	now := clock.Now().Add(time.Minute)
	clock.Advance(time.Minute)
	regions := []geom.Rect{uni, geom.R(uni.Min.X, uni.Min.Y+floorH, uni.Max.X, uni.Min.Y+2*floorH), geom.R(5, floorH-4, 25, floorH+4)}
	for q := 0; (q < 90 || batches.Load() < 60) && !t.Failed(); q++ {
		rect := regions[q%len(regions)]
		snap := s.db.Snapshot()
		cands, all := snap.SupportCandidates(rect), snap.MobileObjects()
		snap.Close()
		got := s.objectsInRegionOn(snap, rect, 0, now, cands)
		want := exhaustiveRegionScan(snap, all, rect, 0, now)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("scan %d over %v: got %v, want %v", q, rect, got, want)
		}
	}
	close(stop)
	wg.Wait()
}
