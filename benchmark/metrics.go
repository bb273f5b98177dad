package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// metricSpec names one reported number. BENCHMARK.json at the root of
// the repository lists the same names, units, directions and bounds;
// a test keeps the two in step.
type metricSpec struct {
	name, unit string
	better     string  // "lower" or "higher"
	bound      float64 // end-to-end only: how much worse before it is a regression
}

// endToEnd are the numbers a user of the system sees, printed by an
// untraced run of every workload. Every bound is the widest the
// benchmark contract admits: on the shared 2-vCPU box the benchmark
// was introduced on, ten-seed spreads of everything CPU-bound reached
// 0.19-0.23 whenever the box itself had a slow quarter of an hour
// (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_readings_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_reading", "us", "lower", 0.25},
	{"ingest_ack_p50_us", "us", "lower", 0.25},
	{"notify_rpc_p50_us", "us", "lower", 0.25},
	{"locate_p50_us", "us", "lower", 0.25},
	{"region_p50_us", "us", "lower", 0.25},
	{"query_ops_per_s", "1/s", "higher", 0.25},
}

// latencySeries are the timings the generator takes on every
// workload. Each has a median and a tail; the medians of
// notify_stream and prob did not repeat within any admissible bound
// and are reported in the client layer instead of gated (README.md).
var latencySeries = []string{"ingest_ack", "notify_stream", "notify_rpc", "locate", "prob", "region"}

// perLayer are the single-layer numbers a traced run prints. Layers
// are the repository's packages, plus client (the generator) and
// runtime (the Go runtime).
var perLayer = []metricSpec{
	{"remote.encode_us_per_reading", "us", "lower", 0},
	{"remote.decode_us_per_reading", "us", "lower", 0},
	{"remote.decode_allocs_per_reading", "count", "lower", 0},
	{"remote.credit_stalls", "count", "lower", 0},
	{"remote.locate_wire_share_us", "us", "lower", 0},
	{"mwrpc.hello_rtt_p50_us", "us", "lower", 0},
	{"mwrpc.frame_encode_p50_us", "us", "lower", 0},
	{"mwrpc.frame_decode_p50_us", "us", "lower", 0},
	{"mwrpc.bytes_per_reading", "B", "lower", 0},
	{"spatialdb.insert_us_per_reading", "us", "lower", 0},
	{"spatialdb.snapshot_cut_p50_us", "us", "lower", 0},
	{"spatialdb.clones_per_cut", "count", "lower", 0},
	{"spatialdb.capture_retries", "count", "lower", 0},
	{"spatialdb.escalations", "count", "lower", 0},
	{"spatialdb.cut_wait_p99_us", "us", "lower", 0},
	{"spatialdb.pool_hit_ratio", "ratio", "higher", 0},
	{"spatialdb.trigger_matches_per_reading", "count", "lower", 0},
	{"spatialdb.support_candidates_us", "us", "lower", 0},
	{"rtree.node_visits_per_query", "count", "lower", 0},
	{"fusion.from_readings_us", "us", "lower", 0},
	{"fusion.prob_region_us", "us", "lower", 0},
	{"fusion.build_us", "us", "lower", 0},
	{"fusion.lattice_nodes_p50", "count", "lower", 0},
	{"fusion.lattice_evals_per_reading", "count", "lower", 0},
	{"core.ingest_nosubs_us_per_reading", "us", "lower", 0},
	{"core.ingest_subs_us_per_reading", "us", "lower", 0},
	{"core.ingest_subs_bytes_per_reading", "B", "lower", 0},
	{"core.ingest_single_us", "us", "lower", 0},
	{"core.trigger_eval_p50_us", "us", "lower", 0},
	{"core.trigger_evals_per_reading", "count", "lower", 0},
	{"core.notify_queue_p50_us", "us", "lower", 0},
	{"core.notify_drops", "count", "lower", 0},
	{"core.pool_inline_ratio", "ratio", "lower", 0},
	{"core.locate_warm_us", "us", "lower", 0},
	{"core.locate_cold_us", "us", "lower", 0},
	{"core.cache_hit_ratio", "ratio", "higher", 0},
	{"core.region_us", "us", "lower", 0},
	{"core.heatmap_p50_us", "us", "lower", 0},
	{"fed.wire_us_per_reading", "us", "lower", 0},
	{"fed.forward_p50_us", "us", "lower", 0},
	{"fed.forwarded_frac", "ratio", "lower", 0},
	{"fed.migrations", "count", "lower", 0},
	{"fed.fallback_local", "count", "lower", 0},
	{"fed.partial_results", "count", "lower", 0},
	{"adapter.emit_us_per_reading", "us", "lower", 0},
	{"obs.trace_overhead_frac", "ratio", "lower", 0},
	{"runtime.allocs_per_reading", "count", "lower", 0},
	{"runtime.alloc_bytes_per_reading", "B", "lower", 0},
	{"runtime.gc_cpu_frac", "ratio", "lower", 0},
	{"runtime.gc_pause_p99_us", "us", "lower", 0},
	{"runtime.heap_live_mb", "MB", "lower", 0},
	{"runtime.goroutines_peak", "count", "lower", 0},
	{"runtime.ingest_readings_per_s_p1", "1/s", "higher", 0},
	{"client.sched_lag_p99_us", "us", "lower", 0},
	{"client.notify_stream_p50_us", "us", "lower", 0},
	{"client.prob_p50_us", "us", "lower", 0},
	{"client.ingest_ack_p95_us", "us", "lower", 0},
	{"client.notify_stream_p95_us", "us", "lower", 0},
	{"client.notify_rpc_p95_us", "us", "lower", 0},
	{"client.locate_p95_us", "us", "lower", 0},
	{"client.prob_p95_us", "us", "lower", 0},
	{"client.region_p95_us", "us", "lower", 0},
	{"client.walk_coverage_frac", "ratio", "higher", 0},
}

// metricValue is one reported number on the wire.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	// notes annotate the human-readable table (sample counts and the
	// like); values holds everything measured, including what this mode
	// does not report. Neither is part of the JSON.
	notes  map[string]string
	values map[string]float64
}

// assemble turns raw values into a result restricted to, and checked
// against, the given specs: a value that is missing, not finite or —
// for an end-to-end metric — zero means the run measured nothing and
// is an error rather than a number.
func assemble(specs []metricSpec, values map[string]float64, nonZero bool) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, sp := range specs {
		v, ok := values[sp.name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", sp.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return nil, fmt.Errorf("metric %s is %v", sp.name, v)
		case nonZero && v == 0:
			return nil, fmt.Errorf("metric %s is zero", sp.name)
		}
		out[sp.name] = metricValue{Value: v, Unit: sp.unit}
	}
	return out, nil
}

// printTable writes the reported metrics, in spec order, for a reader,
// followed by any of the also-measured ones.
func (res *result) printTable(w io.Writer, title string, specs []metricSpec, also ...string) {
	fmt.Fprintf(w, "== %s\n", title)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	for _, sp := range specs {
		if mv, ok := res.Metrics[sp.name]; ok {
			fmt.Fprintf(tw, "%s\t%.4f\t%s\t%s\n", sp.name, mv.Value, mv.Unit, res.notes[sp.name])
		}
	}
	for _, name := range also {
		fmt.Fprintf(tw, "%s\t%.4f\t\t%s (not gated)\n", name, res.values[name], res.notes[name])
	}
	_ = tw.Flush()
}

// printLine writes the result as the single JSON line the benchmark
// contract asks for.
func (res *result) printLine(w io.Writer) error {
	body, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return err
}
