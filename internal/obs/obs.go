// Package obs is MiddleWhere's observability core: a zero-dependency,
// concurrency-safe registry of named counters, gauges, and fixed-bucket
// latency histograms, plus lightweight span tracing (trace.go) and an
// opt-in HTTP debug surface (http.go).
//
// The paper's only evaluation instrument is Figure 9's end-to-end
// trigger response time; this package is what lets the reproduction say
// *where* the adapter → spatial-database → trigger → fusion → mwrpc
// pipeline spends that time. The context-aware-middleware survey
// literature treats monitoring as a standard middleware service; obs is
// that service here.
//
// Cost contract: every metric operation (Counter.Add, Gauge.Set,
// Histogram.Observe) is a handful of atomic instructions and allocates
// nothing, so instrumentation can stay compiled into the hot paths
// unconditionally. Tracing does allocate (IDs, span slices) and is
// therefore gated behind the global Enabled flag: with tracing disabled
// the tracing entry points are no-ops that allocate zero bytes — a
// guarantee locked in by a testing.AllocsPerRun test.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// enabled gates the allocating parts of instrumentation (tracing).
// Metrics record regardless; they are alloc-free.
var enabled atomic.Bool

// SetEnabled turns span tracing on or off process-wide. Off (the
// default) keeps the hot paths allocation-free.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether span tracing is on.
func Enabled() bool { return enabled.Load() }

// ---------------------------------------------------------------------------
// Metric kinds

// Counter is a monotonically increasing counter. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the counter's registered name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, buffer
// fill). Obtain gauges from a Registry.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Name returns the gauge's registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds delta to the gauge — the up/down counterpart of
// Set for gauges tracking a live population (open handles, queue
// depth) that several goroutines grow and shrink concurrently.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram bucket layout: exponential
// upper bounds in microseconds from 1µs to 1s, wide enough for every
// pipeline stage from an R-tree descent to a cross-network notification.
var LatencyBuckets = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
// Bounds are upper bounds in ascending order; observations above the
// last bound land in an implicit overflow bucket. Obtain histograms
// from a Registry.
type Histogram struct {
	name   string
	bounds []float64
	// counts has len(bounds)+1 slots; the last is the overflow bucket.
	counts []atomic.Uint64
	count  atomic.Uint64
	// sumBits accumulates the observation sum as float64 bits (CAS loop
	// — alloc-free).
	sumBits atomic.Uint64
}

func newHistogram(name string, bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{
		name:   name,
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small and fixed, and the scan is
	// branch-predictable; binary search buys nothing at len ~20.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the mean observation, or 0 with no data.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear
// interpolation inside the containing bucket, the standard fixed-bucket
// estimator. Observations in the overflow bucket are attributed to the
// last finite bound. Returns 0 with no data.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := lo
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	// Everything counted but rank beyond the last non-empty bucket
	// (floating point edge): the largest finite bound.
	if len(h.bounds) > 0 {
		return h.bounds[len(h.bounds)-1]
	}
	return 0
}

// QuantileFromBuckets is the fixed-bucket quantile estimator Histogram
// uses, exposed for callers that hold bucket counts outside a live
// histogram: SLO window deltas and cluster-merged snapshots. counts
// must have len(bounds)+1 slots (overflow last, attributed to the last
// finite bound) and need not be cumulative. Returns 0 with no data.
func QuantileFromBuckets(bounds []float64, counts []uint64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q <= 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 && i-1 < len(bounds) {
				lo = bounds[i-1]
			}
			hi := lo
			if i < len(bounds) {
				hi = bounds[i]
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum += c
	}
	if len(bounds) > 0 {
		return bounds[len(bounds)-1]
	}
	return 0
}

// Bounds returns a copy of the histogram's bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	return b
}

// BucketCounts returns a copy of the per-bucket observation counts
// (len(Bounds())+1 slots, overflow last, not cumulative).
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// reset zeroes the histogram in place (identity preserved, so cached
// handles keep working).
func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sumBits.Store(0)
}

// ---------------------------------------------------------------------------
// Registry

// Registry is a concurrency-safe name → metric table. Metrics are
// created on first use and keep their identity for the registry's
// lifetime, so hot paths cache the handle once and touch only atomics
// afterwards.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// LabeledName returns the registry name of a metric with one
// Prometheus-style label, e.g. LabeledName("slo_burn_rate", "slo",
// "ingest") is slo_burn_rate{slo="ingest"}. The registry is flat, so
// the label is part of the name; the value is escaped as the
// exposition format requires (backslash, double quote and newline), so
// /metrics stays valid text whatever the value holds.
func LabeledName(base, label, value string) string {
	return base + "{" + label + `="` + labelEscaper.Replace(value) + `"}`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// defaultRegistry is the process-global registry the built-in
// instrumentation records into.
var defaultRegistry = NewRegistry()

// Default returns the process-global registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds (LatencyBuckets when none are given) on first use. The
// bounds of an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(name, bounds)
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every metric in place. Handles cached by instrumentation
// sites stay valid; only the values reset. Experiment harnesses use it
// to isolate a measured run.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.bits.Store(0)
	}
	for _, h := range r.histograms {
		h.reset()
	}
}

// ---------------------------------------------------------------------------
// Snapshots

// CounterSnap is a point-in-time counter value.
type CounterSnap struct {
	Name  string
	Value uint64
}

// GaugeSnap is a point-in-time gauge value.
type GaugeSnap struct {
	Name  string
	Value float64
}

// BucketSnap is one cumulative histogram bucket; Le is the upper bound
// (math.Inf(1) for the overflow bucket) and Count the observations at
// or below it.
type BucketSnap struct {
	Le    float64
	Count uint64
}

// HistogramSnap is a point-in-time histogram summary.
type HistogramSnap struct {
	Name          string
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
	Buckets       []BucketSnap
}

// Snapshot is a consistent-enough copy of a registry (each metric is
// read atomically; the set is read under the registry lock).
type Snapshot struct {
	Counters   []CounterSnap
	Gauges     []GaugeSnap
	Histograms []HistogramSnap
}

// Snapshot captures every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnap{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		hs := HistogramSnap{
			Name:  name,
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		}
		var cum uint64
		for i := range h.counts {
			cum += h.counts[i].Load()
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketSnap{Le: le, Count: cum})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
