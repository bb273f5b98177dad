package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/spatialdb"
)

// naiveGatedHeatmap is the brute-force reference for the clipped
// rasterizer's window math: every candidate in all, every cell, no
// R-tree and no window — but the same support-gate semantics (a cell an object's
// live support does not intersect contributes zero). heatmapOn over
// either candidate list must reproduce it cell-for-cell.
func naiveGatedHeatmap(s *Service, snap *spatialdb.Snapshot, all []spatialdb.Candidate, rect geom.Rect, rows, cols int, now time.Time) *Heatmap {
	h := &Heatmap{Region: rect, Rows: rows, Cols: cols, At: now}
	h.Cells = make([][]float64, rows)
	for r := range h.Cells {
		h.Cells[r] = make([]float64, cols)
	}
	if rect.Area() <= 0 {
		return h
	}
	cellW := rect.Width() / float64(cols)
	cellH := rect.Height() / float64(rows)
	for _, c := range all {
		readings := s.fusionStateSnap(snap, &c, now).readings
		sup, ok := fusion.SupportBounds(readings)
		if !ok || !sup.Intersects(rect) {
			continue
		}
		h.Objects++
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				cell := geom.R(
					rect.Min.X+float64(c)*cellW,
					rect.Min.Y+float64(r)*cellH,
					rect.Min.X+float64(c+1)*cellW,
					rect.Min.Y+float64(r+1)*cellH,
				)
				if !cell.Intersects(sup) {
					continue
				}
				h.Cells[r][c] += fusion.ProbRegion(snap.Universe(), readings, cell)
			}
		}
	}
	return h
}

func sameGrid(t *testing.T, label string, want, got *Heatmap) {
	t.Helper()
	if want.Objects != got.Objects {
		t.Errorf("%s: objects = %d, want %d", label, got.Objects, want.Objects)
	}
	for r := range want.Cells {
		for c := range want.Cells[r] {
			if want.Cells[r][c] != got.Cells[r][c] {
				t.Errorf("%s: cell (%d,%d) = %v, want %v", label, r, c, got.Cells[r][c], want.Cells[r][c])
			}
		}
	}
}

// TestHeatmapPrefilterEquivalenceRandom is the pre-filter's
// correctness property: over randomized buildings and reading streams
// — objects concentrated in a few floors, supports straddling floor
// (= shard) boundaries, stale readings mid-TTL — the R-tree
// prefiltered heatmap, the exhaustive gated scan, and the brute-force
// full-grid reference all produce cell-identical grids on the same
// snapshot, for whole-building and single-floor query regions alike.
func TestHeatmapPrefilterEquivalenceRandom(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			floors := 2 + rng.Intn(3)
			bld := building.MultiStorey("C", floors, 2, 3, 12, 10, 5)
			clock := &testClock{now: t0}
			s, err := New(bld, WithClock(clock.Now))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			spec := model.UbisenseSpec(0.9)
			spec.TTL = time.Minute
			if err := s.RegisterSensor("ubi", spec); err != nil {
				t.Fatal(err)
			}

			uni := s.db.Universe()
			floorH := uni.Height() / float64(floors)
			objects := 10 + rng.Intn(20)
			for i := 0; i < objects; i++ {
				obj := fmt.Sprintf("p%02d", i)
				// Concentrate most mass on floor 0; some objects walk a
				// few steps, some land within sensor error of the floor
				// boundary so their support straddles shards.
				floor := 0
				if rng.Float64() < 0.3 {
					floor = rng.Intn(floors)
				}
				steps := 1 + rng.Intn(4)
				for j := 0; j < steps; j++ {
					x := rng.Float64() * uni.Width()
					y := rng.Float64() * floorH
					if rng.Float64() < 0.25 {
						y = floorH - rng.Float64()*0.5 // hug the shard boundary
					}
					at := clock.Now().Add(-time.Duration(rng.Intn(50)) * time.Second)
					err := s.Ingest(model.Reading{
						SensorID:  "ubi",
						MObjectID: obj,
						Location:  glob.CoordinatePoint(glob.MustParse(fmt.Sprintf("C/F%d", floor)), geom.Pt(x, y)),
						Time:      at,
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			regions := []geom.Rect{
				uni, // whole building
				geom.R(uni.Min.X, uni.Min.Y, uni.Max.X, uni.Min.Y+floorH), // floor 0
				geom.R(uni.Min.X, uni.Max.Y-floorH, uni.Max.X, uni.Max.Y), // top floor
				geom.R(5, floorH-3, 20, floorH+3),                         // straddles the shard boundary
			}
			snap := s.db.Snapshot()
			defer snap.Close()
			now := clock.Now()
			for ri, rect := range regions {
				rows, cols := 2+rng.Intn(5), 2+rng.Intn(7)
				want := naiveGatedHeatmap(s, snap, snap.MobileObjects(), rect, rows, cols, now)
				pre := s.heatmapOn(snap, rect, rows, cols, now, snap.SupportCandidates(rect))
				exh := s.heatmapOn(snap, rect, rows, cols, now, snap.MobileObjects())
				sameGrid(t, fmt.Sprintf("region %d prefiltered", ri), want, pre)
				sameGrid(t, fmt.Sprintf("region %d exhaustive", ri), want, exh)
			}
		})
	}
}

// TestHeatmapPrefilterEquivalenceDuringMigration keeps objects
// walking between floors while queries run: every query pins
// one snapshot and evaluates both the prefiltered and the exhaustive
// scan against it, so the two must agree cell-for-cell no matter where
// each walk was when the cut landed. Both candidate
// lists are collected under the cut and fused after it is closed, with
// the writer running again; -race reports any read of a row the writer
// is changing.
func TestHeatmapPrefilterEquivalenceDuringMigration(t *testing.T) {
	bld := building.MultiStorey("C", 3, 2, 3, 12, 10, 5)
	clock := &testClock{now: t0}
	s, err := New(bld, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("ubi", spec); err != nil {
		t.Fatal(err)
	}

	const movers = 12
	stop := make(chan struct{})
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
			obj := fmt.Sprintf("m%02d", i%movers)
			floor := rng.Intn(3)
			err := s.Ingest(model.Reading{
				SensorID:  "ubi",
				MObjectID: obj,
				Location: glob.CoordinatePoint(glob.MustParse(fmt.Sprintf("C/F%d", floor)),
					geom.Pt(rng.Float64()*30, rng.Float64()*25)),
				Time: t0.Add(time.Duration(i) * time.Millisecond),
			})
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()

	uni := s.db.Universe()
	floorH := uni.Height() / 3
	floor1 := geom.R(uni.Min.X, uni.Min.Y+floorH, uni.Max.X, uni.Min.Y+2*floorH)
	now := clock.Now().Add(time.Minute)
	for q := 0; q < 60; q++ {
		rect := uni
		if q%2 == 1 {
			rect = floor1
		}
		snap := s.db.Snapshot()
		preCands, all := snap.SupportCandidates(rect), snap.MobileObjects()
		snap.Close()
		pre := s.heatmapOn(snap, rect, 3, 4, now, preCands)
		exh := s.heatmapOn(snap, rect, 3, 4, now, all)
		sameGrid(t, fmt.Sprintf("query %d", q), exh, pre)
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestObjectsInRegionPrefilterEquivalence extends the property to the
// enumeration query: prefiltered and exhaustive ObjectsInRegion return
// identical id→probability maps on one snapshot.
func TestObjectsInRegionPrefilterEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bld := building.MultiStorey("C", 3, 2, 3, 12, 10, 5)
	clock := &testClock{now: t0}
	s, err := New(bld, WithClock(clock.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Minute
	if err := s.RegisterSensor("ubi", spec); err != nil {
		t.Fatal(err)
	}
	uni := s.db.Universe()
	floorH := uni.Height() / 3
	for i := 0; i < 24; i++ {
		floor := rng.Intn(3)
		err := s.Ingest(model.Reading{
			SensorID:  "ubi",
			MObjectID: fmt.Sprintf("p%02d", i),
			Location: glob.CoordinatePoint(glob.MustParse(fmt.Sprintf("C/F%d", floor)),
				geom.Pt(rng.Float64()*uni.Width(), rng.Float64()*floorH)),
			Time: clock.Now(),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	snap := s.db.Snapshot()
	defer snap.Close()
	now := clock.Now()
	for _, rect := range []geom.Rect{uni, geom.R(0, 0, uni.Width(), floorH), geom.R(3, floorH-2, 15, floorH+6)} {
		for _, minProb := range []float64{0, 0.3, 0.7} {
			pre := s.objectsInRegionOn(snap, rect, minProb, now, snap.SupportCandidates(rect))
			exh := s.objectsInRegionOn(snap, rect, minProb, now, snap.MobileObjects())
			if len(pre) != len(exh) {
				t.Fatalf("rect %v minProb %v: prefiltered %d objects, exhaustive %d", rect, minProb, len(pre), len(exh))
			}
			for id, p := range exh {
				if pre[id] != p {
					t.Errorf("rect %v minProb %v: %s = %v prefiltered, %v exhaustive", rect, minProb, id, pre[id], p)
				}
			}
		}
	}
}
