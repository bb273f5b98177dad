package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO support: windowed latency objectives evaluated from the existing
// registry histograms. An SLO says "the Percentile of Metric over the
// trailing Window stays at or below Target"; the tracker snapshots the
// histogram's bucket counts on a fixed cadence and evaluates each
// objective from the window delta, so a burst an hour ago cannot mask
// (or fake) a breach now. This is the pass/fail gate the ROADMAP's
// million-object workload needs and what mwctl health -v surfaces.
//
// Burn-rate accounting: with allowed bad fraction a = 1 - Percentile,
// the burn rate is (observed fraction of window observations above
// Target) / a. Burn 1.0 means the error budget is being spent exactly
// as fast as it accrues; above 1.0 the objective is breached.

// SLO is one windowed latency objective over a registry histogram
// (whose observations are in microseconds, like every *_us histogram).
type SLO struct {
	// Name labels the objective ("ingest"); it becomes the slo="..."
	// label on the exported metrics.
	Name string
	// Metric is the histogram evaluated ("spatialdb_insert_us").
	Metric string
	// Percentile in (0, 1], e.g. 0.99.
	Percentile float64
	// Target is the latency objective at that percentile.
	Target time.Duration
	// Window is the trailing evaluation window.
	Window time.Duration
}

// SLOStatus is one objective's last evaluation.
type SLOStatus struct {
	SLO
	// Attained is the windowed percentile estimate.
	Attained time.Duration
	// BurnRate is (bad fraction)/(1 - Percentile); > 1 burns error
	// budget faster than it accrues.
	BurnRate float64
	// Samples is the number of observations inside the window.
	Samples uint64
	// Breached reports Attained > Target (with at least one sample).
	Breached bool
}

// DefaultSLOAliases maps the short objective names the daemon's -slo
// flag accepts to the always-on histograms they gate. Any other name
// is taken as a literal histogram name.
var DefaultSLOAliases = map[string]string{
	"ingest":  "spatialdb_insert_us",
	"query":   "spatialdb_query_us",
	"heatmap": "core_heatmap_us",
}

// ParseSLOs parses a -slo flag value: comma-separated objectives of
// the form name=pNN<target[@window], e.g.
//
//	ingest=p99<2ms,query=p99<10ms@30s
//
// The percentile accepts a fractional part (p99.9); the window
// defaults to one minute. aliases resolves objective names to metric
// names (nil uses DefaultSLOAliases); unknown names are literal
// histogram names.
func ParseSLOs(spec string, aliases map[string]string) ([]SLO, error) {
	if aliases == nil {
		aliases = DefaultSLOAliases
	}
	var out []SLO
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("obs: slo %q: want name=pNN<target", part)
		}
		pstr, rest, ok := strings.Cut(rest, "<")
		if !ok || !strings.HasPrefix(pstr, "p") {
			return nil, fmt.Errorf("obs: slo %q: want name=pNN<target", part)
		}
		pct, err := strconv.ParseFloat(pstr[1:], 64)
		if err != nil || pct <= 0 || pct >= 100 {
			return nil, fmt.Errorf("obs: slo %q: bad percentile %q", part, pstr)
		}
		window := time.Minute
		tstr := rest
		if ts, ws, hasW := strings.Cut(rest, "@"); hasW {
			tstr = ts
			if window, err = time.ParseDuration(ws); err != nil || window <= 0 {
				return nil, fmt.Errorf("obs: slo %q: bad window %q", part, ws)
			}
		}
		target, err := time.ParseDuration(tstr)
		if err != nil || target <= 0 {
			return nil, fmt.Errorf("obs: slo %q: bad target %q", part, tstr)
		}
		metric := aliases[name]
		if metric == "" {
			metric = name
		}
		out = append(out, SLO{
			Name:       name,
			Metric:     metric,
			Percentile: pct / 100,
			Target:     target,
			Window:     window,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// sloSample is one periodic snapshot of a histogram's bucket counts.
type sloSample struct {
	at     time.Time
	counts []uint64
	total  uint64
}

// sloState is one objective's tracker state.
type sloState struct {
	slo  SLO
	hist *Histogram
	// ring holds periodic samples, oldest first, spanning at least the
	// objective's window.
	ring []sloSample
	last SLOStatus

	mBreaches *Counter
	gBurn     *Gauge
	gAttained *Gauge
	gTarget   *Gauge
	gHealthy  *Gauge
}

// SLOTracker evaluates a set of objectives on a fixed cadence and
// exports their state as slo_* metrics:
//
//	slo_breaches_total                — healthy→breached transitions, all objectives
//	slo_breaches_total{slo="x"}       — transitions for one objective
//	slo_burn_rate{slo="x"}            — windowed burn rate
//	slo_attained_us{slo="x"}          — windowed percentile estimate
//	slo_target_us{slo="x"}            — the configured target
//	slo_healthy{slo="x"}              — 1 meeting the objective, 0 breached
type SLOTracker struct {
	reg      *Registry
	interval time.Duration

	mu        sync.Mutex
	slos      []*sloState
	stop      chan struct{}
	done      chan struct{}
	startOnce sync.Once
	stopOnce  sync.Once

	mBreachesAll *Counter
}

// NewSLOTracker builds a tracker over reg (Default() when nil)
// sampling every interval (default Window/6 of the shortest objective,
// clamped to [100ms, 5s]). Call Tick manually or Start for a
// background loop.
func NewSLOTracker(reg *Registry, slos []SLO, interval time.Duration) *SLOTracker {
	if reg == nil {
		reg = Default()
	}
	if interval <= 0 {
		shortest := time.Duration(0)
		for _, s := range slos {
			if shortest == 0 || s.Window < shortest {
				shortest = s.Window
			}
		}
		interval = shortest / 6
		if interval < 100*time.Millisecond {
			interval = 100 * time.Millisecond
		}
		if interval > 5*time.Second {
			interval = 5 * time.Second
		}
	}
	t := &SLOTracker{
		reg:          reg,
		interval:     interval,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		mBreachesAll: reg.Counter("slo_breaches_total"),
	}
	for _, s := range slos {
		st := &sloState{
			slo:       s,
			hist:      reg.Histogram(s.Metric),
			mBreaches: reg.Counter(LabeledName("slo_breaches_total", "slo", s.Name)),
			gBurn:     reg.Gauge(LabeledName("slo_burn_rate", "slo", s.Name)),
			gAttained: reg.Gauge(LabeledName("slo_attained_us", "slo", s.Name)),
			gTarget:   reg.Gauge(LabeledName("slo_target_us", "slo", s.Name)),
			gHealthy:  reg.Gauge(LabeledName("slo_healthy", "slo", s.Name)),
		}
		st.gTarget.Set(float64(s.Target.Microseconds()))
		st.gHealthy.Set(1)
		st.last = SLOStatus{SLO: s}
		t.slos = append(t.slos, st)
	}
	return t
}

// SLOs returns the configured objectives, sorted by name.
func (t *SLOTracker) SLOs() []SLO {
	out := make([]SLO, 0, len(t.slos))
	for _, st := range t.slos {
		out = append(out, st.slo)
	}
	return out
}

// Tick samples every objective's histogram and re-evaluates it against
// its trailing window. Safe for concurrent use.
func (t *SLOTracker) Tick() { t.tickAt(time.Now()) }

func (t *SLOTracker) tickAt(now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.slos {
		t.evalLocked(st, now)
	}
}

// evalLocked pushes a fresh sample and evaluates one objective.
func (t *SLOTracker) evalLocked(st *sloState, now time.Time) {
	cur := sloSample{at: now, counts: st.hist.BucketCounts(), total: st.hist.Count()}

	// Baseline: the newest retained sample at or beyond one window ago
	// (the oldest sample before the ring has filled — a partial window,
	// evaluated as-is rather than reported as no data).
	cutoff := now.Add(-st.slo.Window)
	base := -1
	for i := len(st.ring) - 1; i >= 0; i-- {
		if !st.ring[i].at.After(cutoff) {
			base = i
			break
		}
	}
	if base == -1 && len(st.ring) > 0 {
		base = 0
	}

	var delta []uint64
	var samples uint64
	if base >= 0 {
		prev := st.ring[base]
		delta = make([]uint64, len(cur.counts))
		for i := range cur.counts {
			if i < len(prev.counts) && cur.counts[i] >= prev.counts[i] {
				delta[i] = cur.counts[i] - prev.counts[i]
			} else {
				delta[i] = cur.counts[i] // histogram was reset mid-window
			}
		}
		samples = cur.total - prev.total
		if cur.total < prev.total {
			samples = cur.total
		}
		// Drop samples older than the baseline; keep the baseline itself.
		st.ring = append(st.ring[:0], st.ring[base:]...)
	} else {
		delta = cur.counts
		samples = cur.total
	}
	st.ring = append(st.ring, cur)

	bounds := st.hist.bounds
	targetUs := float64(st.slo.Target.Microseconds())
	attainedUs := QuantileFromBuckets(bounds, delta, st.slo.Percentile)

	// Bad fraction: observations above the target, interpolating inside
	// the bucket containing it. Overflow-bucket observations count as
	// bad whenever the target is finite-bounded.
	var bad float64
	for i, c := range delta {
		if c == 0 {
			continue
		}
		lo := 0.0
		if i > 0 && i-1 < len(bounds) {
			lo = bounds[i-1]
		}
		if i >= len(bounds) { // overflow bucket
			if targetUs <= lo {
				bad += float64(c)
			}
			continue
		}
		hi := bounds[i]
		switch {
		case targetUs >= hi:
			// whole bucket at or below target
		case targetUs <= lo:
			bad += float64(c)
		default:
			bad += float64(c) * (hi - targetUs) / (hi - lo)
		}
	}
	burn := 0.0
	if samples > 0 {
		allowed := 1 - st.slo.Percentile
		if allowed <= 0 {
			allowed = 1e-9
		}
		burn = (bad / float64(samples)) / allowed
	}
	breached := samples > 0 && attainedUs > targetUs

	if breached && !st.last.Breached {
		t.mBreachesAll.Inc()
		st.mBreaches.Inc()
	}
	st.last = SLOStatus{
		SLO:      st.slo,
		Attained: time.Duration(attainedUs) * time.Microsecond,
		BurnRate: burn,
		Samples:  samples,
		Breached: breached,
	}
	st.gBurn.Set(burn)
	st.gAttained.Set(attainedUs)
	if breached {
		st.gHealthy.Set(0)
	} else {
		st.gHealthy.Set(1)
	}
}

// Status returns every objective's last evaluation, sorted by name.
func (t *SLOTracker) Status() []SLOStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, 0, len(t.slos))
	for _, st := range t.slos {
		out = append(out, st.last)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Breached reports whether any objective is currently breached.
func (t *SLOTracker) Breached() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, st := range t.slos {
		if st.last.Breached {
			return true
		}
	}
	return false
}

// Start launches the background sampling loop. Stop ends it.
func (t *SLOTracker) Start() {
	t.startOnce.Do(func() {
		go func() {
			defer close(t.done)
			tick := time.NewTicker(t.interval)
			defer tick.Stop()
			for {
				select {
				case <-t.stop:
					return
				case <-tick.C:
					t.Tick()
				}
			}
		}()
	})
}

// Stop ends the background loop (safe if Start was never called, and
// safe to call twice).
func (t *SLOTracker) Stop() {
	t.stopOnce.Do(func() {
		close(t.stop)
		t.startOnce.Do(func() { close(t.done) }) // never started: release waiters
		<-t.done
	})
}
