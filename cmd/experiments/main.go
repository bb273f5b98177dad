// Command experiments regenerates every table and figure of the
// paper's evaluation plus the extension experiments indexed in
// DESIGN.md §5. Output is plain text in the shape the paper reports
// (series per trigger count for Figure 9, the Table 1/2 layouts, and
// result tables for E1/E4/E5).
//
// Usage:
//
//	experiments                       # run everything
//	experiments -run F9               # one experiment: T1, T2, F9, E1, E4, E5, CAL
//	experiments -run F9 -breakdown    # F9 plus a per-stage latency table
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"middlewhere"
	"middlewhere/internal/bench"
)

func main() {
	runName := flag.String("run", "all", "experiment to run: T1, T2, F9, E1, E4, E5, CAL, or all")
	quick := flag.Bool("quick", false, "smaller parameters for a fast pass")
	flag.BoolVar(&breakdown, "breakdown", false, "with F9: trace the pipeline and print per-stage latencies")
	flag.Parse()
	if err := run(os.Stdout, strings.ToUpper(*runName), *quick); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, name string, quick bool) error {
	all := name == "ALL"
	ran := false
	type exp struct {
		id string
		fn func(io.Writer, bool) error
	}
	for _, e := range []exp{
		{"T1", runT1}, {"T2", runT2}, {"F9", runF9},
		{"E1", runE1}, {"E4", runE4}, {"E5", runE5},
		{"CAL", runCAL},
	} {
		if all || name == e.id {
			if err := e.fn(w, quick); err != nil {
				return fmt.Errorf("%s: %w", e.id, err)
			}
			ran = true
			fmt.Fprintln(w)
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// runT1 reproduces Table 1: the spatial object table of the floor.
func runT1(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "== T1: spatial object table (paper Table 1) ==")
	bld := middlewhere.PaperFloor()
	svc, err := middlewhere.New(bld)
	if err != nil {
		return err
	}
	defer svc.Close()
	fmt.Fprint(w, svc.DB().DumpObjectTable())
	return nil
}

// runT2 reproduces Table 2 and the §5.2 sensor table: the paper's two
// sample readings inserted through adapters.
func runT2(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "== T2: sensor reading table (paper Table 2) and sensor table (§5.2) ==")
	bld := middlewhere.PaperFloor()
	now := time.Date(2026, 7, 5, 11, 52, 35, 0, time.UTC)
	svc, err := middlewhere.New(bld, middlewhere.WithClock(func() time.Time { return now }))
	if err != nil {
		return err
	}
	defer svc.Close()

	// The paper's rows: RF-12 sees tom-pda in 3105 at (5,22) with a
	// 30 ft radius; Ubi-18 sees ralph-bat in NetLab at (4,3) within
	// 6 inches. (Table 2 uses room-frame coordinates.)
	rf, err := middlewhere.NewRFID("RF-12", middlewhere.MustParseGLOB("CS/Floor3/3105"),
		middlewhere.Pt(5, 22), 30, 0.8, svc, svc, middlewhere.AdapterOptions{})
	if err != nil {
		return err
	}
	if err := rf.ReportBadge("tom-pda", now); err != nil {
		return err
	}
	ubi, err := middlewhere.NewUbisense("Ubi-18", middlewhere.MustParseGLOB("CS/Floor3/NetLab"),
		0.9, svc, svc, middlewhere.AdapterOptions{})
	if err != nil {
		return err
	}
	if err := ubi.ReportFix("ralph-bat", middlewhere.Pt(4, 3), now.Add(-73*time.Second)); err != nil {
		return err
	}
	fmt.Fprint(w, svc.DB().DumpReadingTable())
	fmt.Fprintln(w)
	fmt.Fprint(w, svc.DB().DumpSensorTable())
	return nil
}

// breakdown asks runF9 for the per-stage latency decomposition (set by
// the -breakdown flag).
var breakdown bool

// runF9 reproduces Figure 9: trigger response time for consecutive
// updates, one series per number of programmed triggers.
func runF9(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "== F9: trigger response time (paper Figure 9) ==")
	counts := []int{1, 10, 50, 100, 500}
	updates := 10
	if quick {
		counts = []int{1, 10, 50}
	}
	series, err := bench.TriggerResponse(counts, updates)
	if err != nil {
		return err
	}
	// Header: update indices.
	fmt.Fprintf(w, "%-10s", "triggers")
	for u := 1; u <= updates; u++ {
		fmt.Fprintf(w, " upd%02d", u)
	}
	fmt.Fprintf(w, " | %8s %8s\n", "mean(us)", "rest(us)")
	for _, s := range series {
		fmt.Fprintf(w, "%-10d", s.Triggers)
		for _, l := range s.UpdateLatencies {
			fmt.Fprintf(w, " %5.0f", l)
		}
		rest := s.UpdateLatencies[1:]
		fmt.Fprintf(w, " | %8.0f %8.0f\n", bench.Mean(s.UpdateLatencies), bench.Mean(rest))
	}
	fmt.Fprintln(w, "expected shape: response time ~independent of trigger count;")
	fmt.Fprintln(w, "first update slower than the rest (initial setup), as in the paper.")
	if breakdown {
		fmt.Fprintln(w)
		return runF9Breakdown(w, quick)
	}
	return nil
}

// runF9Breakdown traces one F9 run and prints where the pipeline time
// goes, stage by stage.
func runF9Breakdown(w io.Writer, quick bool) error {
	triggers, updates := 100, 50
	if quick {
		triggers, updates = 10, 20
	}
	bd, err := bench.TriggerResponseBreakdown(triggers, updates)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "== F9 -breakdown: per-stage latency (%d triggers, %d updates) ==\n",
		bd.Triggers, bd.Updates)
	fmt.Fprintf(w, "%-14s %7s %10s %10s %10s\n", "stage", "count", "mean(us)", "p50(us)", "p95(us)")
	for _, st := range bd.Stages {
		fmt.Fprintf(w, "%-14s %7d %10.1f %10.1f %10.1f\n",
			st.Stage, st.Count, st.MeanUs, st.P50Us, st.P95Us)
	}
	fmt.Fprintf(w, "%-14s %7s %10.1f\n", "stage sum", "", bd.StageSumUs)
	fmt.Fprintf(w, "pipeline end-to-end (trace wall time, %d complete traces): %.1f us\n",
		bd.CompleteTraces, bd.PipelineMeanUs)
	if bd.PipelineMeanUs > 0 {
		fmt.Fprintf(w, "stage sum / end-to-end: %.0f%%\n", 100*bd.StageSumUs/bd.PipelineMeanUs)
	}
	fmt.Fprintf(w, "for reference: client ingest RTT %.1f us, client update->notify %.1f us\n",
		bd.ClientRTTUs, bd.EndToEndMeanUs)
	fmt.Fprintln(w, "expected shape: stage sum within 20% of the measured end-to-end;")
	fmt.Fprintln(w, "notify dominated by queue wait, db insert by the R-tree walk.")
	return nil
}

// runE1 quantifies fusion accuracy against single technologies.
func runE1(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "== E1: fusion accuracy vs ground truth (extension) ==")
	steps := 600
	if quick {
		steps = 200
	}
	rows, err := bench.FusionAccuracy(1, steps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %9s %9s %9s %9s %8s\n",
		"mix", "mean-err", "p90-err", "room-acc", "coverage", "samples")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %9.2f %9.2f %8.0f%% %8.0f%% %8d\n",
			r.Mix, r.MeanErr, r.P90Err, r.RoomAccuracy*100, r.Coverage*100, r.Samples)
	}
	fmt.Fprintln(w, "expected shape: fusing technologies beats each alone on accuracy and coverage.")
	return nil
}

// runE4 quantifies the MBR approximation trade-off of §4.1.2.
func runE4(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "== E4: MBR approximation vs exact polygons (ablation) ==")
	row := bench.MBRApproximation(10000)
	fmt.Fprintf(w, "probes: %d  disagreements: %d (%.1f%%)  mbr: %.0f ns/probe  polygon: %.0f ns/probe\n",
		row.Points, row.Disagreements,
		100*float64(row.Disagreements)/float64(row.Points),
		row.MBRNanos, row.PolyNanos)
	fmt.Fprintln(w, "expected shape: MBR misclassifies the notch of non-convex rooms but is cheaper,")
	fmt.Fprintln(w, "the trade the paper accepts for sensor regions (§4.1.2).")
	return nil
}

// runE5 shows confidence decay under the temporal degradation
// function.
func runE5(w io.Writer, _ bool) error {
	fmt.Fprintln(w, "== E5: temporal degradation of location confidence (§3.2) ==")
	ages := []time.Duration{0, 1 * time.Second, 2 * time.Second, 4 * time.Second,
		8 * time.Second, 16 * time.Second, 32 * time.Second}
	rows, err := bench.TemporalDegradation(ages)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%10s %8s %10s\n", "age(s)", "prob", "band")
	for _, r := range rows {
		fmt.Fprintf(w, "%10.0f %8.3f %10s\n", r.AgeSeconds, r.Prob, r.Band)
	}
	fmt.Fprintln(w, "expected shape: monotone decay with the Ubisense exponential tdf.")
	return nil
}

// runCAL runs the simulated user study that recovers the sensor-model
// parameters (the §11 future work: "user studies to get accurate
// values of ... the probability of carrying location devices").
func runCAL(w io.Writer, quick bool) error {
	fmt.Fprintln(w, "== CAL: parameter recovery from a simulated user study (§11 future work) ==")
	steps := 500
	if quick {
		steps = 200
	}
	rows, err := bench.CalibrationStudy(5, steps)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %8s %10s\n", "parameter", "true", "estimated")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8.3f %10.3f\n", r.Parameter, r.True, r.Estimated)
	}
	fmt.Fprintln(w, "expected shape: estimates within sampling error of the generator's values,")
	fmt.Fprintln(w, "without access to the per-person carriage labels (EM over detection counts).")
	return nil
}
