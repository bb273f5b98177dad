package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"middlewhere/internal/obs"
)

// obsSnap is a copy of a metric registry at one instant. The per-layer
// numbers sourced from the program's own instrumentation are
// differences of two such copies taken around a window, read from
// outside: the program is not changed to be measured.
type obsSnap struct {
	counters map[string]uint64
	gauges   map[string]float64
	hists    map[string]histCounts
}

// histCounts holds a histogram's bucket bounds and per-bucket (not
// cumulative) counts, overflow bucket last.
type histCounts struct {
	bounds []float64
	counts []uint64
}

func readObs(reg *obs.Registry) obsSnap {
	snap := reg.Snapshot()
	s := obsSnap{
		counters: make(map[string]uint64, len(snap.Counters)),
		gauges:   make(map[string]float64, len(snap.Gauges)),
		hists:    make(map[string]histCounts, len(snap.Histograms)),
	}
	for _, c := range snap.Counters {
		s.counters[c.Name] = c.Value
	}
	for _, g := range snap.Gauges {
		s.gauges[g.Name] = g.Value
	}
	for _, h := range snap.Histograms {
		hc := histCounts{counts: make([]uint64, len(h.Buckets))}
		var prev uint64
		for i, b := range h.Buckets {
			if !math.IsInf(b.Le, 1) {
				hc.bounds = append(hc.bounds, b.Le)
			}
			hc.counts[i] = b.Count - prev
			prev = b.Count
		}
		s.hists[h.Name] = hc
	}
	return s
}

// obsDelta is what happened between two snapshots.
type obsDelta struct{ from, to obsSnap }

// counter is the named counter's increase (0 when it never existed).
func (d obsDelta) counter(name string) float64 {
	return float64(d.to.counters[name] - d.from.counters[name])
}

// gauge is the named gauge's change, for gauges that only accumulate.
func (d obsDelta) gauge(name string) float64 {
	return d.to.gauges[name] - d.from.gauges[name]
}

// quantile estimates the q-th quantile of the observations the named
// histogram received inside the window, by subtracting bucket counts.
func (d obsDelta) quantile(name string, q float64) float64 {
	to, ok := d.to.hists[name]
	if !ok {
		return 0
	}
	counts := append([]uint64(nil), to.counts...)
	if from, ok := d.from.hists[name]; ok && len(from.counts) == len(counts) {
		for i := range counts {
			counts[i] -= from.counts[i]
		}
	}
	return obs.QuantileFromBuckets(to.bounds, counts, q)
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// procSnap is the process's resource use at one instant: CPU from
// getrusage (what cpu_us_per_reading divides), the rest from the Go
// runtime.
type procSnap struct {
	cpu            time.Duration // user + system
	mallocs, bytes uint64
	gcCPU          float64 // seconds
	heapLive       uint64
	pauses         *metrics.Float64Histogram
}

const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mHeapLive = "/gc/heap/live:bytes"
	mPauses   = "/gc/pauses:seconds"
)

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := procSnap{cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
	sm := []metrics.Sample{{Name: mGCCPU}, {Name: mHeapLive}, {Name: mPauses}}
	metrics.Read(sm)
	if sm[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = sm[0].Value.Float64()
	}
	if sm[1].Value.Kind() == metrics.KindUint64 {
		p.heapLive = sm[1].Value.Uint64()
	}
	if sm[2].Value.Kind() == metrics.KindFloat64Histogram {
		p.pauses = sm[2].Value.Float64Histogram()
	}
	return p
}

// pauseQuantileUs is the q-th quantile, in microseconds, of the GC
// pauses that happened between two snapshots (upper bucket bound).
func pauseQuantileUs(from, to procSnap, q float64) float64 {
	if to.pauses == nil {
		return 0
	}
	counts := append([]uint64(nil), to.pauses.Counts...)
	if from.pauses != nil && len(from.pauses.Counts) == len(counts) {
		for i := range counts {
			counts[i] -= from.pauses.Counts[i]
		}
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			hi := to.pauses.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = to.pauses.Buckets[i]
			}
			return hi * 1e6
		}
	}
	return 0
}
