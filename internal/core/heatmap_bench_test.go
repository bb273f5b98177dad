package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// benchCity builds a 16-floor tower of 640 objects spread over the
// bottom hot floors. BenchmarkHeatmapPrefiltered concentrates every
// object's probability mass in the bottom two floors (1/8 of the
// building). Heatmap queries round-robin over all floors, so a
// pre-filter-free scan would pay the full population on the 14 empty
// floors while the support index returns (near) nothing there; the
// measured 58x over that scan is EXPERIMENTS.md §PERF-10.
const (
	benchFloors  = 16
	benchObjects = 640
	benchHotNum  = 2 // the heatmap's objects live on floors 0..benchHotNum-1
)

func benchCity(b *testing.B, hot int, opts ...Option) (*Service, []geom.Rect, time.Time) {
	b.Helper()
	clock := &testClock{now: t0}
	s, err := New(building.MultiStorey("C", benchFloors, 2, 3, 12, 10, 5),
		append([]Option{WithClock(clock.Now)}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("ubi", spec); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	batch := make([]model.Reading, 0, benchObjects)
	for i := 0; i < benchObjects; i++ {
		floor := i % hot
		batch = append(batch, model.Reading{
			SensorID:  "ubi",
			MObjectID: fmt.Sprintf("p%04d", i),
			Location: glob.CoordinatePoint(glob.MustParse(fmt.Sprintf("C/F%d", floor)),
				geom.Pt(rng.Float64()*36, rng.Float64()*28)),
			Time: t0,
		})
	}
	if err := s.IngestBatchLocal(batch); err != nil {
		b.Fatal(err)
	}
	rects := make([]geom.Rect, benchFloors)
	for f := 0; f < benchFloors; f++ {
		r, err := s.db.ResolveGLOB(glob.MustParse(fmt.Sprintf("C/F%d", f)))
		if err != nil {
			b.Fatal(err)
		}
		rects[f] = r
	}
	return s, rects, clock.Now()
}

func BenchmarkHeatmapPrefiltered(b *testing.B) {
	b.Run(fmt.Sprintf("floors-%d-objects-%d", benchFloors, benchObjects), func(b *testing.B) {
		s, rects, now := benchCity(b, benchHotNum)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			snap := s.db.Snapshot()
			rect := rects[i%benchFloors]
			h := s.heatmapOn(snap, rect, 4, 6, now, snap.SupportCandidates(rect))
			snap.Close()
			_ = h.Objects
		}
	})
}

// BenchmarkObjectsInRegionFloor is "who is on floor F?" through the
// public query with a warm fusion cache: 40 people on each of the 16
// floors, and the query round-robins over the floors at the benchmark
// workloads' minimum probability, so each op is one snapshot cut, one
// support search, and 40-odd cache hits each gated and scored by
// ProbRegion (EXPERIMENTS.md §PERF-37).
func BenchmarkObjectsInRegionFloor(b *testing.B) {
	s, _, _ := benchCity(b, benchFloors)
	floors := make([]glob.GLOB, benchFloors)
	for f := range floors {
		floors[f] = glob.MustParse(fmt.Sprintf("C/F%d", f))
		if _, err := s.ObjectsInRegion(floors[f], 0.5); err != nil { // warm the cache
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := s.ObjectsInRegion(floors[i%benchFloors], 0.5)
		if err != nil {
			b.Fatal(err)
		}
		regionSink = got
	}
}

var regionSink map[string]float64

// BenchmarkNotifyDispatch measures end-to-end subscription dispatch:
// one qualifying reading notifies 32 every-reading subscriptions
// through the one notification queue, and the op completes when every
// notification has been handled.
func BenchmarkNotifyDispatch(b *testing.B) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	spec := model.UbisenseSpec(0.9)
	spec.TTL = time.Hour
	if err := s.RegisterSensor("ubi-1", spec); err != nil {
		b.Fatal(err)
	}
	const subs = 32
	var delivered atomic.Uint64
	for i := 0; i < subs; i++ {
		_, err := s.Subscribe(Subscription{
			Region:       glob.MustParse("CS/Floor3/NetLab"),
			EveryReading: true,
			Handler:      func(Notification) { delivered.Add(1) },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := s.Ingest(model.Reading{
			SensorID:  "ubi-1",
			MObjectID: "walker",
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(370, 15)),
			Time:      t0.Add(time.Duration(i) * time.Millisecond),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	want := uint64(b.N) * subs
	for delivered.Load() < want {
		runtime.Gosched()
	}
}
