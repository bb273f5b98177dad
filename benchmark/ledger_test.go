package main

import (
	"testing"

	"middlewhere/internal/obs"
)

func TestRegistryDeltaArithmetic(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("reads_total")
	g := reg.Gauge("visits")
	h := reg.Histogram("lat_us")

	// Before the window: noise that must not leak into the delta.
	c.Add(7)
	g.Set(100)
	for i := 0; i < 50; i++ {
		h.Observe(900) // bucket (500, 1000]
	}
	from := readObs(reg)

	c.Add(5)
	g.Set(160)
	for i := 0; i < 10; i++ {
		h.Observe(3) // bucket (2, 5]
	}
	created := reg.Counter("created_in_window_total")
	created.Add(4)
	d := obsDelta{from: from, to: readObs(reg)}

	if got := d.counter("reads_total"); got != 5 {
		t.Errorf("counter delta = %v, want 5", got)
	}
	if got := d.counter("created_in_window_total"); got != 4 {
		t.Errorf("counter born inside the window = %v, want 4", got)
	}
	if got := d.counter("never_existed"); got != 0 {
		t.Errorf("missing counter = %v, want 0", got)
	}
	if got := d.gauge("visits"); got != 60 {
		t.Errorf("gauge delta = %v, want 60", got)
	}
	// All ten window observations sit in (2, 5]; the fifty earlier ones
	// in (500, 1000] would drag an undifferenced median up there.
	if got := d.quantile("lat_us", 0.5); got <= 2 || got > 5 {
		t.Errorf("window p50 = %v, want within (2, 5]", got)
	}
	if got := readObs(reg).hists["lat_us"]; len(got.counts) != len(got.bounds)+1 {
		t.Errorf("histogram has %d counts for %d bounds, want one overflow bucket more", len(got.counts), len(got.bounds))
	}
	if got := d.quantile("no_such_histogram", 0.5); got != 0 {
		t.Errorf("missing histogram p50 = %v, want 0", got)
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Errorf("ratio: got %v and %v, want 0 and 2", ratio(1, 0), ratio(6, 3))
	}
}
