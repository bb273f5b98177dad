// Package bench is the experiment harness that regenerates every table
// and figure in the paper's evaluation (§9) plus the extension and
// ablation experiments catalogued in DESIGN.md §5 / EXPERIMENTS.md:
//
//	F9  — Figure 9: trigger response time per update, one series per
//	      number of programmed triggers, over the full network stack.
//	T1  — Table 1: the spatial object table for the paper floor.
//	T2  — Table 2: sensor reading rows + the §5.2 sensor table.
//	E1  — fusion accuracy vs single technologies (needs ground truth).
//	E4  — MBR approximation vs exact polygon reasoning.
//	E5  — temporal degradation of confidence and accuracy.
//
// Each experiment returns plain result rows; cmd/experiments formats
// them.
package bench

import (
	"fmt"
	"math"
	"sort"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/remote"
	"middlewhere/internal/sim"
	"middlewhere/internal/spatialdb"
)

// ---------------------------------------------------------------------------
// F9 — Figure 9: trigger response time

// F9Series is one curve of Figure 9: the latency of each of the
// consecutive location updates with a fixed number of programmed
// triggers.
type F9Series struct {
	// Triggers is the number of programmed triggers.
	Triggers int
	// UpdateLatencies[i] is the time from sending update i to
	// receiving its notification, in microseconds.
	UpdateLatencies []float64
}

// TriggerResponse reproduces Figure 9: for each trigger count it
// brings up a fresh Location Service behind the TCP stack, programs
// the triggers, sends `updates` location updates for a tracked person,
// and measures update→notification latency at the subscribing client.
// One designated subscription watches the region the person reports
// into; the remaining triggers are spread over other regions, which is
// what makes the response time (nearly) independent of the trigger
// count.
func TriggerResponse(triggerCounts []int, updates int) ([]F9Series, error) {
	var out []F9Series
	for _, n := range triggerCounts {
		series, err := triggerResponseOnce(n, updates)
		if err != nil {
			return nil, fmt.Errorf("bench F9 (%d triggers): %w", n, err)
		}
		out = append(out, series)
	}
	return out, nil
}

func triggerResponseOnce(triggers, updates int) (F9Series, error) {
	bld := building.PaperFloor()
	svc, err := core.New(bld)
	if err != nil {
		return F9Series{}, err
	}
	defer svc.Close()
	srv := remote.NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return F9Series{}, err
	}
	defer srv.Close()
	client, err := remote.DialLocation(addr)
	if err != nil {
		return F9Series{}, err
	}
	defer client.Close()

	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := client.RegisterSensor("bench-ubi", spec); err != nil {
		return F9Series{}, err
	}

	// The watched subscription: every reading in the NetLab notifies.
	notified := make(chan remote.NotificationDTO, 64)
	_, err = client.Subscribe(remote.SubscribeArgs{
		Region:       "CS/Floor3/NetLab",
		EveryReading: true,
	}, func(n remote.NotificationDTO) { notified <- n })
	if err != nil {
		return F9Series{}, err
	}
	// The remaining programmed triggers watch other regions and other
	// objects; they exist to scale the trigger table.
	filler := []string{"CS/Floor3/3105", "CS/Floor3/HCILab", "CS/Floor3/LabCorridor", "CS/Floor3/MainCorridor"}
	for i := 1; i < triggers; i++ {
		_, err := client.Subscribe(remote.SubscribeArgs{
			Region: filler[i%len(filler)],
			Object: fmt.Sprintf("other-%d", i),
		}, func(remote.NotificationDTO) {})
		if err != nil {
			return F9Series{}, err
		}
	}

	series := F9Series{Triggers: triggers}
	floor := glob.MustParse("CS/Floor3")
	for u := 0; u < updates; u++ {
		pos := geom.Pt(365+float64(u%10), 10+float64(u%5))
		start := time.Now()
		err := client.Ingest(model.Reading{
			SensorID:  "bench-ubi",
			MObjectID: "bench-person",
			Location:  glob.CoordinatePoint(floor, pos),
			Time:      time.Now(),
		})
		if err != nil {
			return F9Series{}, err
		}
		select {
		case <-notified:
			series.UpdateLatencies = append(series.UpdateLatencies,
				float64(time.Since(start))/float64(time.Microsecond))
		case <-time.After(5 * time.Second):
			return F9Series{}, fmt.Errorf("update %d: no notification", u)
		}
	}
	return series, nil
}

// ---------------------------------------------------------------------------
// F9 -breakdown — per-stage latency decomposition

// StageStat summarizes one pipeline stage's latency histogram.
type StageStat struct {
	// Stage is the span name ("ingest", "db_insert", ...).
	Stage string
	// Count is how many spans were observed.
	Count uint64
	// MeanUs, P50Us, P95Us are microsecond latencies.
	MeanUs, P50Us, P95Us float64
}

// F9Breakdown decomposes the F9 update→notification path into its
// pipeline stages, measured from the span traces the obs package
// records while the harness runs.
type F9Breakdown struct {
	// Triggers and Updates echo the harness configuration.
	Triggers, Updates int
	// Stages holds the four server-side stages in pipeline order:
	// ingest (frame decode), db_insert, trigger_eval, notify (queue
	// wait + push).
	Stages []StageStat
	// StageSumUs is the sum of the per-stage means.
	StageSumUs float64
	// PipelineMeanUs is the measured end-to-end pipeline time: for each
	// trace that completed all four stages, the wall time from the
	// earliest span start to the latest span end, averaged. StageSumUs
	// should agree with it closely because the stages are contiguous
	// and sequential.
	PipelineMeanUs float64
	// CompleteTraces is how many traces contributed to PipelineMeanUs.
	CompleteTraces int
	// ClientRTTUs is the mean client-observed mw.ingest round trip
	// (the rpc_ingest span), which additionally pays encode + transport.
	ClientRTTUs float64
	// EndToEndMeanUs is the client-measured update→notification mean —
	// the quantity Figure 9 plots.
	EndToEndMeanUs float64
}

// pipelineStages are the server-side stages of one reading's trip, in
// order. The client-side rpc_ingest span overlaps them and is reported
// separately.
var pipelineStages = []string{"ingest", "db_insert", "trigger_eval", "notify"}

// TriggerResponseBreakdown runs the F9 harness once with span tracing
// enabled and reports where the time goes. It resets the process-global
// registry and tracer so the numbers cover exactly this run.
func TriggerResponseBreakdown(triggers, updates int) (F9Breakdown, error) {
	wasEnabled := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(wasEnabled)
	obs.Default().Reset()
	obs.DefaultTracer().Reset()

	series, err := triggerResponseOnce(triggers, updates)
	if err != nil {
		return F9Breakdown{}, fmt.Errorf("bench F9 breakdown: %w", err)
	}
	// The last notify span is recorded just after the push frame is
	// written, racing the client's receipt; let the tail settle.
	time.Sleep(20 * time.Millisecond)

	bd := F9Breakdown{
		Triggers:       triggers,
		Updates:        updates,
		EndToEndMeanUs: mean(series.UpdateLatencies),
	}
	hists := map[string]obs.HistogramSnap{}
	for _, h := range obs.Default().Snapshot().Histograms {
		hists[h.Name] = h
	}
	for _, stage := range pipelineStages {
		st := StageStat{Stage: stage}
		if h, ok := hists["stage_"+stage+"_us"]; ok && h.Count > 0 {
			st.Count = h.Count
			st.MeanUs = h.Sum / float64(h.Count)
			st.P50Us, st.P95Us = h.P50, h.P95
			bd.StageSumUs += st.MeanUs
		}
		bd.Stages = append(bd.Stages, st)
	}
	if h, ok := hists["stage_rpc_ingest_us"]; ok && h.Count > 0 {
		bd.ClientRTTUs = h.Sum / float64(h.Count)
	}

	// Per-trace pipeline wall time over the server-side stages only
	// (rpc_ingest is the client's view of the same interval plus
	// transport, so including it would double-count).
	var walls []float64
	for _, tr := range obs.RecentTraces(updates) {
		var (
			minStart time.Duration = math.MaxInt64
			maxEnd   time.Duration
			seen     int
		)
		for _, sp := range tr.Spans {
			server := false
			for _, s := range pipelineStages {
				if sp.Stage == s {
					server = true
					break
				}
			}
			if !server {
				continue
			}
			seen++
			if sp.Offset < minStart {
				minStart = sp.Offset
			}
			if end := sp.Offset + sp.Dur; end > maxEnd {
				maxEnd = end
			}
		}
		if seen == len(pipelineStages) {
			walls = append(walls, float64(maxEnd-minStart)/float64(time.Microsecond))
		}
	}
	bd.CompleteTraces = len(walls)
	bd.PipelineMeanUs = mean(walls)
	return bd, nil
}

// ---------------------------------------------------------------------------
// E1 — fusion accuracy vs single technologies

// E1Row is one sensor-mix result.
type E1Row struct {
	// Mix names the deployed technologies.
	Mix string
	// MeanErr and P90Err are the localization error statistics, in
	// universe units, against ground truth.
	MeanErr, P90Err float64
	// RoomAccuracy is the fraction of samples whose symbolic room
	// matched ground truth.
	RoomAccuracy float64
	// Coverage is the fraction of query attempts that produced any
	// location at all.
	Coverage float64
	// Samples is the number of located samples.
	Samples int
}

// mixSpec describes which simulated technologies to deploy. naive
// replaces Bayesian fusion with the latest-reading-wins baseline.
type mixSpec struct {
	name                 string
	ubisense, rfid, card bool
	naive                bool
}

// FusionAccuracy runs the E1 experiment: the same simulated world is
// observed through different sensor mixes, and the fused estimate is
// scored against ground truth. It quantifies the fusion claim of
// §4.1.2 (multiple technologies reinforce each other).
func FusionAccuracy(seed int64, steps int) ([]E1Row, error) {
	mixes := []mixSpec{
		{name: "rfid-only", rfid: true},
		{name: "ubisense-only", ubisense: true},
		{name: "rfid+card", rfid: true, card: true},
		{name: "all", ubisense: true, rfid: true, card: true},
		// The no-fusion ablation: same sensors, but each query just
		// takes the newest unexpired reading instead of fusing.
		{name: "all-naive", ubisense: true, rfid: true, card: true, naive: true},
	}
	var out []E1Row
	for _, mix := range mixes {
		row, err := fusionAccuracyOnce(mix, seed, steps)
		if err != nil {
			return nil, fmt.Errorf("bench E1 (%s): %w", mix.name, err)
		}
		out = append(out, row)
	}
	return out, nil
}

func fusionAccuracyOnce(mix mixSpec, seed int64, steps int) (E1Row, error) {
	bld := building.Synthetic("E1", 3, 5, 24, 18, 9)
	world, err := sim.New(bld, sim.Config{
		People:   8,
		Seed:     seed,
		DwellMin: 4 * time.Second,
		DwellMax: 12 * time.Second,
	})
	if err != nil {
		return E1Row{}, err
	}
	svc, err := core.New(bld, core.WithClock(world.Now))
	if err != nil {
		return E1Row{}, err
	}
	defer svc.Close()

	frame := glob.MustParse("E1/F")
	var observers []sim.Observer
	if mix.ubisense {
		a, err := adapter.NewUbisense("e1-ubi", frame, 0.9, svc, svc, adapter.Options{})
		if err != nil {
			return E1Row{}, err
		}
		observers = append(observers, sim.NewUbisenseField(a, bld.Universe, 0.9, world.Rand()))
	}
	if mix.rfid {
		// Four stations covering the corridors.
		for i, pos := range []geom.Point{{X: 20, Y: 4}, {X: 70, Y: 4}, {X: 40, Y: 31}, {X: 90, Y: 58}} {
			a, err := adapter.NewRFID(fmt.Sprintf("e1-rf-%d", i), frame, pos, 20, 0.85, svc, svc, adapter.Options{})
			if err != nil {
				return E1Row{}, err
			}
			observers = append(observers, sim.NewRFIDStation(a, pos, 20, 0.85, world.Rand()))
		}
	}
	if mix.card {
		for _, room := range []string{"E1/F/r0c0", "E1/F/r1c2", "E1/F/r2c4"} {
			a, err := adapter.NewCardReader("e1-card-"+room[len(room)-4:], glob.MustParse(room), svc, svc, adapter.Options{})
			if err != nil {
				return E1Row{}, err
			}
			observers = append(observers, &sim.CardReaderDoor{Adapter: a, Room: room})
		}
	}

	var (
		errs     []float64
		roomHits int
		attempts int
		located  int
	)
	for i := 0; i < steps; i++ {
		world.Step()
		snapshot := world.People()
		for _, o := range observers {
			if err := o.Observe(world.Now(), snapshot); err != nil {
				return E1Row{}, err
			}
		}
		if i%5 != 0 {
			continue
		}
		for _, p := range snapshot {
			attempts++
			var est geom.Rect
			var sym string
			if mix.naive {
				rect, room, ok := naiveLatest(svc, p.ID, world.Now())
				if !ok {
					continue
				}
				est, sym = rect, room
			} else {
				loc, err := svc.LocateObject(p.ID)
				if err != nil {
					continue
				}
				est, sym = loc.Rect, loc.Symbolic.String()
			}
			located++
			errs = append(errs, est.Center().Dist(p.Pos))
			if sym == p.Room {
				roomHits++
			}
		}
	}
	row := E1Row{Mix: mix.name, Samples: located}
	if attempts > 0 {
		row.Coverage = float64(located) / float64(attempts)
	}
	if located > 0 {
		row.MeanErr = mean(errs)
		row.P90Err = percentile(errs, 0.9)
		row.RoomAccuracy = float64(roomHits) / float64(located)
	}
	return row, nil
}

// ---------------------------------------------------------------------------
// E5 — temporal degradation

// E5Row is the degraded confidence and inferred probability at one
// reading age.
type E5Row struct {
	AgeSeconds float64
	// Prob is the fused P(person in reported region) at that age.
	Prob float64
	// Band is its §4.4 classification.
	Band string
}

// TemporalDegradation ages a single Ubisense reading and reports how
// the inferred probability decays under the technology's tdf (§3.2).
func TemporalDegradation(ages []time.Duration) ([]E5Row, error) {
	bld := building.PaperFloor()
	now := time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)
	current := now
	svc, err := core.New(bld, core.WithClock(func() time.Time { return current }))
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Hour // keep the reading alive for the whole sweep
	if err := svc.RegisterSensor("e5-ubi", spec); err != nil {
		return nil, err
	}
	if err := svc.Ingest(model.Reading{
		SensorID:  "e5-ubi",
		MObjectID: "p",
		Location:  glob.MustParse("CS/Floor3/(370,15)"),
		Time:      now,
	}); err != nil {
		return nil, err
	}
	var out []E5Row
	for _, age := range ages {
		current = now.Add(age)
		p, band, err := svc.ProbInRegion("p", glob.MustParse("CS/Floor3/NetLab"))
		if err != nil {
			return nil, err
		}
		out = append(out, E5Row{AgeSeconds: age.Seconds(), Prob: p, Band: band.String()})
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E4 — MBR approximation vs exact polygons

// E4Row compares containment verdicts for an L-shaped room.
type E4Row struct {
	// Points is the number of probe points tested.
	Points int
	// Disagreements is how many probes the MBR approximation
	// misclassifies relative to the exact polygon.
	Disagreements int
	// MBRNanos and PolyNanos are the mean per-probe costs.
	MBRNanos, PolyNanos float64
}

// MBRApproximation quantifies the paper's §4.1.2 trade-off: MBR
// containment is cheap but over-approximates non-convex rooms.
func MBRApproximation(points int) E4Row {
	// The L-shaped room from the geometry tests, scaled up.
	room := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(40, 0), geom.Pt(40, 20),
		geom.Pt(20, 20), geom.Pt(20, 40), geom.Pt(0, 40),
	}
	mbr := room.Bounds()
	row := E4Row{Points: points}

	// Deterministic probe grid over the MBR.
	side := int(math.Sqrt(float64(points)))
	if side < 2 {
		side = 2
	}
	probes := make([]geom.Point, 0, side*side)
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			probes = append(probes, geom.Pt(
				mbr.Min.X+(float64(i)+0.5)*mbr.Width()/float64(side),
				mbr.Min.Y+(float64(j)+0.5)*mbr.Height()/float64(side),
			))
		}
	}
	row.Points = len(probes)

	start := time.Now()
	mbrIn := make([]bool, len(probes))
	for i, p := range probes {
		mbrIn[i] = mbr.ContainsPoint(p)
	}
	row.MBRNanos = float64(time.Since(start).Nanoseconds()) / float64(len(probes))

	start = time.Now()
	polyIn := make([]bool, len(probes))
	for i, p := range probes {
		polyIn[i] = room.ContainsPoint(p)
	}
	row.PolyNanos = float64(time.Since(start).Nanoseconds()) / float64(len(probes))

	for i := range probes {
		if mbrIn[i] != polyIn[i] {
			row.Disagreements++
		}
	}
	return row
}

// ---------------------------------------------------------------------------
// small statistics helpers

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// Mean and Percentile are exported for cmd/experiments.
var (
	Mean       = mean
	Percentile = percentile
)

// naiveLatest is the no-fusion baseline: the newest unexpired reading
// wins outright, with no reinforcement, conflict resolution, or
// temporal weighting beyond the TTL cut.
func naiveLatest(svc *core.Service, objectID string, now time.Time) (geom.Rect, string, bool) {
	rows := svc.DB().LatestPerSensor(objectID, now)
	if len(rows) == 0 {
		return geom.Rect{}, "", false
	}
	newest := rows[0]
	for _, r := range rows[1:] {
		if r.Time.After(newest.Time) {
			newest = r
		}
	}
	// Resolve the symbolic room the way the service does: smallest
	// room/corridor containing the estimate centre.
	var sym string
	bestDepth := -1
	for _, o := range svc.DB().IntersectingObjects(newest.Region, spatialdb.ObjectFilter{}) {
		switch o.Type {
		case "Room", "Corridor", "Floor":
		default:
			continue
		}
		if (o.Bounds.ContainsRect(newest.Region) || o.Bounds.ContainsPoint(newest.Region.Center())) &&
			o.GLOB.Depth() > bestDepth {
			sym, bestDepth = o.GLOB.String(), o.GLOB.Depth()
		}
	}
	return newest.Region, sym, true
}
