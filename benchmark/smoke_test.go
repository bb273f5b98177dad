package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs each workload for one second on a
// 2-floor, 32-person city — untraced, and once traced — and demands
// what the full-size benchmark demands: every metric present, every
// output verified, no operation failed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs load for several seconds")
	}
	o := options{size: smokeCity, seed: 1, window: time.Second, setups: 2, outDir: t.TempDir()}
	for _, wl := range workloads {
		wl := wl
		t.Run(wl.name, func(t *testing.T) {
			res, err := runWorkload(wl, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, sp := range endToEnd {
				if mv, ok := res.Metrics[sp.name]; !ok || mv.Value <= 0 || mv.Unit != sp.unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", sp.name, mv, ok, sp.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		wl, _ := workloadByName("notify-city")
		o := o
		o.traced = true
		o.window = 2 * time.Second
		res, err := runWorkload(wl, o)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Errorf("attempted=%d failed=%d", res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%d metrics, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
		}
		for _, name := range []string{"remote.decode_us_per_reading", "core.ingest_subs_us_per_reading",
			"core.trigger_evals_per_reading", "runtime.ingest_readings_per_s_p1", "client.notify_stream_p95_us"} {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s = %v, want positive", name, res.Metrics[name].Value)
			}
		}
		if _, err := os.Stat(o.outDir + "/trace-notify-city.json"); err != nil {
			t.Errorf("spans not written: %v", err)
		}
	})
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json at the root of
// the repository in step with the tables this package reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   float64
	}
	var file struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(file.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if got := file.Workloads[i]; got.Name != wl.name || got.Why != wl.why {
			t.Errorf("workload %d: %+v, want %s: %s", i, got, wl.name, wl.why)
		}
	}
	check := func(kind string, got []entry, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
			return
		}
		for i, sp := range want {
			g := got[i]
			if g.Name != sp.name || g.Unit != sp.unit || g.Better != sp.better || g.Bound != sp.bound {
				t.Errorf("%s %d: %+v, want %+v", kind, i, g, sp)
			}
		}
	}
	check("end_to_end", file.EndToEnd, endToEnd)
	check("per_layer", file.PerLayer, perLayer)
}
