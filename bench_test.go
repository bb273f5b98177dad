// Benchmarks for the ablations in DESIGN.md §5/§6. Run with:
//
//	go test -bench=. -benchmem
//
// Mapping to EXPERIMENTS.md (F9 and E4 are `cmd/experiments -run F9`
// and `-run E4`; the service's hot paths are measured over the wire
// by benchmark/):
//
//	E2 — BenchmarkLatticeBuild / BenchmarkLatticeInfer /
//	     BenchmarkProbRegion (fusion cost vs reading count)
//	E3 — BenchmarkRegionQueryRTree vs BenchmarkRegionQueryLinear
//	     (spatial index ablation vs object count)
//	E6 — BenchmarkNotifyFanout (subscriber scaling)
package middlewhere_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"middlewhere"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/rtree"
	"middlewhere/internal/rules"
)

// ---------------------------------------------------------------------------
// E2: fusion lattice cost vs number of readings

func fusionReadings(n int, rng *rand.Rand) []fusion.Reading {
	out := make([]fusion.Reading, n)
	for i := range out {
		x, y := rng.Float64()*80, rng.Float64()*80
		out[i] = fusion.Reading{
			ID:   fmt.Sprintf("s%d", i),
			Rect: geom.R(x, y, x+5+rng.Float64()*15, y+5+rng.Float64()*15),
			P:    0.6 + rng.Float64()*0.4,
			Q:    rng.Float64() * 0.01,
		}
	}
	return out
}

func BenchmarkLatticeBuild(b *testing.B) {
	universe := geom.R(0, 0, 100, 100)
	for _, n := range []int{2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("readings-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			readings := fusionReadings(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := fusion.Build(universe, readings)
				l.Evaluate()
			}
		})
	}
}

func BenchmarkLatticeInfer(b *testing.B) {
	universe := geom.R(0, 0, 100, 100)
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("readings-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			readings := fusionReadings(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l := fusion.Build(universe, readings)
				if _, err := l.Infer(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkProbRegion(b *testing.B) {
	universe := geom.R(0, 0, 100, 100)
	region := geom.R(30, 30, 60, 60)
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("readings-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			readings := fusionReadings(n, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fusion.ProbRegion(universe, readings, region)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E3: R-tree vs linear scan (the PostGIS-index ablation)

type rectEntry struct {
	r  geom.Rect
	id string
}

func randomRects(n int, rng *rand.Rand) []rectEntry {
	out := make([]rectEntry, n)
	for i := range out {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		out[i] = rectEntry{
			r:  geom.R(x, y, x+1+rng.Float64()*20, y+1+rng.Float64()*20),
			id: fmt.Sprintf("o%d", i),
		}
	}
	return out
}

func BenchmarkRegionQueryRTree(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("objects-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			entries := randomRects(n, rng)
			tr := rtree.New[string]()
			for _, e := range entries {
				tr.Insert(e.r, e.id)
			}
			query := geom.R(400, 400, 450, 450)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.SearchIntersect(query)
			}
		})
	}
}

func BenchmarkRegionQueryLinear(b *testing.B) {
	for _, n := range []int{100, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("objects-%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			entries := randomRects(n, rng)
			query := geom.R(400, 400, 450, 450)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var hits []string
				for _, e := range entries {
					if e.r.Intersects(query) {
						hits = append(hits, e.id)
					}
				}
				_ = hits
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E6: notification fan-out

func BenchmarkNotifyFanout(b *testing.B) {
	for _, subs := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("subscribers-%d", subs), func(b *testing.B) {
			bld := middlewhere.PaperFloor()
			now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
			svc, err := middlewhere.New(bld, middlewhere.WithClock(func() time.Time { return now }))
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			spec := middlewhere.UbisenseSpec(0.95)
			spec.TTL = time.Hour
			if err := svc.RegisterSensor("s", spec); err != nil {
				b.Fatal(err)
			}
			done := make(chan struct{}, subs*2)
			for i := 0; i < subs; i++ {
				_, err := svc.Subscribe(middlewhere.Subscription{
					Region:       middlewhere.MustParseGLOB("CS/Floor3/NetLab"),
					EveryReading: true,
					Handler:      func(middlewhere.Notification) { done <- struct{}{} },
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			floor := middlewhere.MustParseGLOB("CS/Floor3")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := svc.Ingest(middlewhere.Reading{
					SensorID:  "s",
					MObjectID: "p",
					Location:  middlewhere.CoordPointGLOB(floor, middlewhere.Pt(370, 15)),
					Time:      now,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < subs; j++ {
					<-done
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Substrate benchmarks: rule engine, routing, query language, fused
// distribution

// benchService is the paper floor with one Ubisense and one RFID
// reading of "alice", for the distribution benchmark.
func benchService(b *testing.B) *middlewhere.Service {
	b.Helper()
	bld := middlewhere.PaperFloor()
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	svc, err := middlewhere.New(bld, middlewhere.WithClock(func() time.Time { return now }))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	for i, spec := range []middlewhere.SensorSpec{
		middlewhere.UbisenseSpec(0.9),
		middlewhere.RFIDSpec(0.8),
	} {
		spec.TTL = time.Hour
		if err := svc.RegisterSensor(fmt.Sprintf("s%d", i), spec); err != nil {
			b.Fatal(err)
		}
	}
	floor := middlewhere.MustParseGLOB("CS/Floor3")
	for i := 0; i < 2; i++ {
		err := svc.Ingest(middlewhere.Reading{
			SensorID:  fmt.Sprintf("s%d", i),
			MObjectID: "alice",
			Location:  middlewhere.CoordPointGLOB(floor, middlewhere.Pt(370, 15)),
			Time:      now,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return svc
}

func BenchmarkDatalogReachability(b *testing.B) {
	for _, rooms := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("rooms-%d", rooms), func(b *testing.B) {
			bld := middlewhere.SyntheticBuilding("D", rooms/10+1, 10, 12, 10, 5)
			svc, err := middlewhere.New(bld)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := svc.RuleEngine()
				if err := e.AddRule(rules.R(
					rules.A("reach", rules.V("X"), rules.V("Y")),
					rules.Pos(rules.A("ecfp", rules.V("X"), rules.V("Y"))),
				)); err != nil {
					b.Fatal(err)
				}
				if err := e.AddRule(rules.R(
					rules.A("reach", rules.V("X"), rules.V("Z")),
					rules.Pos(rules.A("reach", rules.V("X"), rules.V("Y"))),
					rules.Pos(rules.A("ecfp", rules.V("Y"), rules.V("Z"))),
				)); err != nil {
					b.Fatal(err)
				}
				if err := e.Evaluate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkShortestRoute(b *testing.B) {
	for _, size := range []int{4, 10, 20} {
		b.Run(fmt.Sprintf("grid-%dx%d", size, size), func(b *testing.B) {
			bld := middlewhere.SyntheticBuilding("R", size, size, 12, 10, 5)
			g, err := bld.Graph()
			if err != nil {
				b.Fatal(err)
			}
			from := "R/F/r0c0"
			to := fmt.Sprintf("R/F/r%dc%d", size-1, size-1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.ShortestRoute(from, to, middlewhere.FreeOnly); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMWQL(b *testing.B) {
	bld := middlewhere.SyntheticBuilding("Q", 10, 10, 12, 10, 5)
	svc, err := middlewhere.New(bld)
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	const query = `SELECT objects WHERE type = 'Room' AND near((60, 60), 40) NEAREST (0, 0) LIMIT 5`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := middlewhere.ExecQuery(svc.DB(), query); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistribution(b *testing.B) {
	svc := benchService(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Distribution("alice"); err != nil {
			b.Fatal(err)
		}
	}
}
