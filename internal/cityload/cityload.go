// Package cityload is the city-scale sustained-load harness: it
// stands up a MultiStorey "city" (every floor a shard), drives an
// open-loop readings/sec-targeted stream of Ubisense fixes through
// per-floor adapters and a shared batcher, runs a concurrent
// occupancy-heatmap query loop against the same service, and gates
// the run on windowed p99 latency SLOs (obs.SLOTracker) plus the
// generator's own pacing report. It is the proof harness for the
// snapshot cuts (DESIGN.md §16): cuts ride the query loop at full rate
// while ingest sustains the offered load, and a breach of either the
// pace or an SLO fails the run.
//
// The harness is wall-clock driven — SLO windows and the open-loop
// pacing are real time — but the *simulated* clock advances one
// sim-step per generator step, and the service's clock is slaved to
// it, so sensor TTLs and fusion temporal degradation see a coherent
// timeline regardless of the wall rate.
package cityload

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/obs"
	"middlewhere/internal/sim"
)

// Config sizes the city and the load.
type Config struct {
	// Floors is the number of floors (= reading-table shards) in the
	// city tower. Rows x Cols rooms per floor.
	Floors, Rows, Cols int
	// People is the number of simulated tag carriers.
	People int
	// Steps is how many generator steps to run; StepsPerSec is the
	// open-loop target rate. Offered readings/sec is about
	// StepsPerSec x People x CarryProb.
	Steps       int
	StepsPerSec float64
	// CarryProb is the per-step probability a person's tag reports.
	CarryProb float64
	// FlushSize is the ingest batcher's auto-flush threshold.
	FlushSize int
	// SLOSpec is an obs.ParseSLOs spec gating the run, e.g.
	// "ingest=p99<25ms,heatmap=p99<250ms".
	SLOSpec string
	// QueryEvery is the heatmap query loop's cadence; HeatRows x
	// HeatCols is the requested grid.
	QueryEvery         time.Duration
	HeatRows, HeatCols int
	// Slack is the worst step lag the pacing gate tolerates.
	Slack time.Duration
	// Seed fixes the simulation and sensor-noise streams.
	Seed int64
}

func (c Config) withDefaults() Config {
	// The default city is an order of magnitude past the PR-9 harness
	// (8 floors / 64 people): the support-index heatmap and sharded
	// notifier keep the query loop sublinear in the population, so the
	// same SLO spec holds at 16 floors / 640 people on the 1-CPU CI
	// box (EXPERIMENTS.md §PERF-10).
	if c.Floors <= 0 {
		c.Floors = 16
	}
	if c.Rows <= 0 {
		c.Rows = 4
	}
	if c.Cols <= 0 {
		c.Cols = 6
	}
	if c.People <= 0 {
		c.People = 640
	}
	// 20 steps/s x 640 people x 0.95 carry offers ~12k readings/s —
	// 5x the PR-9 harness's offered load — while leaving the single
	// CI core headroom for the concurrent query loop; the population
	// (not the step rate) is what the sublinear queries are gated on.
	if c.Steps <= 0 {
		c.Steps = 200
	}
	if c.StepsPerSec <= 0 {
		c.StepsPerSec = 20
	}
	if c.CarryProb <= 0 || c.CarryProb > 1 {
		c.CarryProb = 0.95
	}
	if c.FlushSize <= 0 {
		c.FlushSize = 128
	}
	if c.SLOSpec == "" {
		c.SLOSpec = "ingest=p99<25ms,heatmap=p99<250ms"
	}
	if c.QueryEvery <= 0 {
		c.QueryEvery = 100 * time.Millisecond
	}
	if c.HeatRows <= 0 {
		c.HeatRows = 4
	}
	if c.HeatCols <= 0 {
		c.HeatCols = 6
	}
	if c.Slack <= 0 {
		c.Slack = 500 * time.Millisecond
	}
	return c
}

// Report is the harness verdict: the pacing report, throughput
// achieved, the SLO evaluations, and pass/fail with reasons.
type Report struct {
	Floors, People int
	Pace           sim.PaceReport
	// Readings is the number of fixes emitted into the batcher;
	// OfferedPerSec is the configured target, AchievedPerSec the
	// measured emission rate over the run.
	Readings       int64
	OfferedPerSec  float64
	AchievedPerSec float64
	// HeatmapQueries is how many occupancy heatmaps the concurrent
	// query loop completed during the run.
	HeatmapQueries int64
	SLOs           []obs.SLOStatus
	Passed         bool
	Failures       []string
}

// String renders the report in the experiments-output style.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "city: %d floors, %d people\n", r.Floors, r.People)
	fmt.Fprintf(&b, "load: %d readings in %v (offered %.0f/s, achieved %.0f/s)\n",
		r.Readings, r.Pace.Elapsed.Round(time.Millisecond), r.OfferedPerSec, r.AchievedPerSec)
	fmt.Fprintf(&b, "pace: %d/%d steps late, max lag %v\n",
		r.Pace.LateSteps, r.Pace.Steps, r.Pace.MaxLag.Round(time.Microsecond))
	fmt.Fprintf(&b, "queries: %d occupancy heatmaps\n", r.HeatmapQueries)
	for _, s := range r.SLOs {
		verdict := "ok"
		if s.Breached {
			verdict = "BREACHED"
		}
		fmt.Fprintf(&b, "slo %-8s p%g<%v: attained %v over %d samples, burn %.2f — %s\n",
			s.Name, s.Percentile*100, s.Target, s.Attained, s.Samples, s.BurnRate, verdict)
	}
	if r.Passed {
		b.WriteString("PASS\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %s\n", strings.Join(r.Failures, "; "))
	}
	return b.String()
}

// cityField observes the simulation's ground truth and reports each
// carried tag through the adapter of the floor the person is on. The
// simulator hands out universe coordinates; Ubisense adapters speak
// their floor's frame, so the fix is translated to floor-local before
// ReportFix re-anchors it — that per-floor anchoring is what routes
// each reading to its floor's shard. The observer also slaves the
// service clock to the simulated timeline.
type cityField struct {
	adapters []*adapter.Ubisense
	floorH   float64
	carry    float64
	rng      *rand.Rand
	simNowNs *atomic.Int64
	emitted  int64
}

func (f *cityField) Observe(now time.Time, people []sim.PersonState) error {
	f.simNowNs.Store(now.UnixNano())
	for _, p := range people {
		if f.rng.Float64() > f.carry {
			continue
		}
		k := int(p.Pos.Y / f.floorH)
		if k < 0 {
			k = 0
		}
		if k >= len(f.adapters) {
			k = len(f.adapters) - 1
		}
		local := geom.Pt(p.Pos.X, p.Pos.Y-float64(k)*f.floorH)
		if err := f.adapters[k].ReportFix(p.ID, local, now); err != nil {
			return fmt.Errorf("cityload: floor %d fix: %w", k, err)
		}
		f.emitted++
	}
	return nil
}

// Run executes the sustained-load harness and returns its verdict.
// The error covers harness failures (bad config, ingest errors); gate
// failures come back as a Report with Passed == false.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	slos, err := obs.ParseSLOs(cfg.SLOSpec, nil)
	if err != nil {
		return nil, fmt.Errorf("cityload: %w", err)
	}

	const roomW, roomH, corridorH = 12.0, 10.0, 5.0
	bld := building.MultiStorey("C", cfg.Floors, cfg.Rows, cfg.Cols, roomW, roomH, corridorH)
	floorH := float64(cfg.Rows) * (roomH + corridorH)

	// The service clock follows the simulated timeline (stored by the
	// observer each step) so TTL expiry and temporal degradation are
	// evaluated against the same clock that stamps the readings.
	var simNowNs atomic.Int64
	svc, err := core.New(bld, core.WithClock(func() time.Time {
		return time.Unix(0, simNowNs.Load()).UTC()
	}))
	if err != nil {
		return nil, fmt.Errorf("cityload: %w", err)
	}
	defer svc.Close()

	s, err := sim.New(bld, sim.Config{People: cfg.People, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("cityload: %w", err)
	}
	simNowNs.Store(s.Now().UnixNano())

	batch := adapter.NewBatcher(svc, cfg.FlushSize)
	field := &cityField{
		floorH:   floorH,
		carry:    cfg.CarryProb,
		rng:      rand.New(rand.NewSource(cfg.Seed + 1)),
		simNowNs: &simNowNs,
	}
	for k := 0; k < cfg.Floors; k++ {
		a, err := adapter.NewUbisense(fmt.Sprintf("ubi-f%02d", k),
			glob.MustParse(fmt.Sprintf("C/F%d", k)), cfg.CarryProb, batch, svc, adapter.Options{})
		if err != nil {
			return nil, fmt.Errorf("cityload: %w", err)
		}
		field.adapters = append(field.adapters, a)
	}

	tracker := obs.NewSLOTracker(nil, slos, 0)
	tracker.Tick() // baseline sample before any load

	// Concurrent query loop: occupancy heatmaps round-robin the
	// floors while ingest runs, so every query is a snapshot cut
	// racing live batches. The tracker ticks on the same cadence.
	stop := make(chan struct{})
	var qwg sync.WaitGroup
	var queries atomic.Int64
	var queryErr atomic.Pointer[error]
	qwg.Add(1)
	go func() {
		defer qwg.Done()
		tick := time.NewTicker(cfg.QueryEvery)
		defer tick.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			region := glob.MustParse(fmt.Sprintf("C/F%d", i%cfg.Floors))
			if _, err := svc.OccupancyHeatmap(region, cfg.HeatRows, cfg.HeatCols); err != nil {
				e := fmt.Errorf("cityload: heatmap %s: %w", region, err)
				queryErr.CompareAndSwap(nil, &e)
				return
			}
			queries.Add(1)
			tracker.Tick()
		}
	}()

	pace, runErr := sim.RunPaced(s, cfg.Steps, cfg.StepsPerSec, batch, field)
	close(stop)
	qwg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	if ep := queryErr.Load(); ep != nil {
		return nil, *ep
	}
	if err := batch.Close(); err != nil {
		return nil, fmt.Errorf("cityload: final flush: %w", err)
	}
	tracker.Tick()

	rep := &Report{
		Floors:         cfg.Floors,
		People:         cfg.People,
		Pace:           pace,
		Readings:       field.emitted,
		OfferedPerSec:  cfg.StepsPerSec * float64(cfg.People) * cfg.CarryProb,
		HeatmapQueries: queries.Load(),
		SLOs:           tracker.Status(),
	}
	if pace.Elapsed > 0 {
		rep.AchievedPerSec = float64(field.emitted) / pace.Elapsed.Seconds()
	}
	if !pace.OnSchedule(cfg.Slack) {
		rep.Failures = append(rep.Failures,
			fmt.Sprintf("generator fell %v behind schedule (slack %v): ingest cannot sustain %.0f readings/s",
				pace.MaxLag.Round(time.Millisecond), cfg.Slack, rep.OfferedPerSec))
	}
	if rep.HeatmapQueries == 0 {
		rep.Failures = append(rep.Failures, "query loop never completed a heatmap")
	}
	for _, st := range rep.SLOs {
		if st.Breached {
			rep.Failures = append(rep.Failures,
				fmt.Sprintf("slo %s: p%g attained %v > target %v", st.Name, st.Percentile*100, st.Attained, st.Target))
		}
	}
	rep.Passed = len(rep.Failures) == 0
	return rep, nil
}
