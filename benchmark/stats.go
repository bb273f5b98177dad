package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// samples collects one timing's observations in microseconds. It is
// not safe for concurrent use: every metric has exactly one recording
// goroutine (the notification handler for probes, the generator
// goroutine for everything else).
type samples struct {
	us     []float64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.us = append(s.us, float64(d.Nanoseconds())/1e3)
	s.sorted = false
}

func (s *samples) n() int { return len(s.us) }

func (s *samples) sort() {
	if !s.sorted {
		sort.Float64s(s.us)
		s.sorted = true
	}
}

// percentile returns the q-th quantile (0..1) by linear interpolation
// between closest ranks, 0 with no samples.
func (s *samples) percentile(q float64) float64 {
	if len(s.us) == 0 {
		return 0
	}
	s.sort()
	return quantileSorted(s.us, q)
}

func quantileSorted(v []float64, q float64) float64 {
	if len(v) == 1 {
		return v[0]
	}
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (pos-float64(lo))*(v[hi]-v[lo])
}

// tailPercentiles are the candidates for the reported tail, highest
// first.
var tailPercentiles = []int{99, 95, 90}

// tail returns the highest of p99/p95/p90 that has at least ten
// samples beyond it, with its label ("p99"); ok is false when even p90
// has fewer (under 100 samples), and the maximum is returned as "max".
func (s *samples) tail() (label string, value float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(s.us)*(100-p) >= 10*100 {
			return fmt.Sprintf("p%d", p), s.percentile(float64(p) / 100), true
		}
	}
	return "max", s.percentile(1), false
}

// median, quartiles and relative spreads of a handful of run results
// (the -repeat and -compare reports).
type spread struct {
	n                int
	median, q1, q3   float64
	min, max         float64
	iqrFrac, rngFrac float64 // (q3-q1)/median and (max-min)/median
}

func spreadOf(values []float64) spread {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	sp := spread{n: len(v)}
	if len(v) == 0 {
		return sp
	}
	sp.median = quantileSorted(v, 0.5)
	sp.q1, sp.q3 = quartiles(v)
	sp.min, sp.max = v[0], v[len(v)-1]
	if sp.median != 0 {
		sp.iqrFrac = (sp.q3 - sp.q1) / math.Abs(sp.median)
		sp.rngFrac = (sp.max - sp.min) / math.Abs(sp.median)
	}
	return sp
}

// quartiles reproduces Python's statistics.quantiles(v, n=4) (the
// "exclusive" method the benchmark contract measures spreads with) on
// a sorted slice; with fewer than two values both are the value.
func quartiles(sorted []float64) (q1, q3 float64) {
	n := len(sorted)
	if n < 2 {
		return sorted[0], sorted[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return at(1), at(3)
}
