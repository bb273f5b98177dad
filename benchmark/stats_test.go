package main

import (
	"math"
	"testing"
	"time"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndSampleCount(t *testing.T) {
	var s samples
	if s.percentile(0.5) != 0 || s.n() != 0 {
		t.Fatalf("empty series: p50=%v n=%d, want 0 and 0", s.percentile(0.5), s.n())
	}
	// 1..100 µs, added out of order.
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i) * time.Microsecond)
	}
	if s.n() != 100 {
		t.Fatalf("n = %d, want 100", s.n())
	}
	for q, want := range map[float64]float64{0: 1, 0.5: 50.5, 0.99: 99.01, 1: 100} {
		if got := s.percentile(q); !approx(got, want) {
			t.Errorf("p%.0f = %v, want %v", q*100, got, want)
		}
	}
	// Adding after a read re-sorts.
	s.add(0)
	if got := s.percentile(0); got != 0 {
		t.Errorf("min after late add = %v, want 0", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		label string
		ok    bool
	}{
		{1000, "p99", true}, // 10 beyond p99
		{999, "p95", true},
		{200, "p95", true}, // 10 beyond p95
		{199, "p90", true},
		{100, "p90", true},
		{99, "max", false},
	} {
		var s samples
		for i := 0; i < tc.n; i++ {
			s.add(time.Duration(i) * time.Microsecond)
		}
		label, _, ok := s.tail()
		if label != tc.label || ok != tc.ok {
			t.Errorf("n=%d: tail = %s ok=%v, want %s ok=%v", tc.n, label, ok, tc.label, tc.ok)
		}
	}
}

// The contract measures spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30}, 10, 30},
		{[]float64{3, 5}, 2.5, 5.5},
	} {
		sp := spreadOf(tc.v)
		if !approx(sp.q1, tc.q1) || !approx(sp.q3, tc.q3) {
			t.Errorf("%v: quartiles %v, %v, want %v, %v", tc.v, sp.q1, sp.q3, tc.q1, tc.q3)
		}
	}
	sp := spreadOf([]float64{90, 100, 110, 100, 100, 100, 100, 100, 100, 100})
	if !approx(sp.median, 100) || !approx(sp.rngFrac, 0.2) || !approx(sp.iqrFrac, 0) {
		t.Errorf("spread = %+v, want median 100, range 0.2, iqr 0", sp)
	}
}
