// Command benchmark is the repository's one performance instrument: it
// stands up the real daemon stack in its own process, drives it over
// loopback TCP with the binary wire codec from a seeded city-scale
// generator, checks the program's answers, and prints the end-to-end
// metrics (untraced) or the per-layer ledger (traced) of one workload.
// README.md in this directory describes workloads, metrics and modes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// procs pins GOMAXPROCS: the workloads are two generator goroutines
// against a daemon sized by GOMAXPROCS, and numbers from boxes with
// different core counts would not be comparable otherwise.
const procs = 2

func main() {
	var (
		workloadName = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed         = flag.Int64("seed", 1, "seed of the generated city and load; the only input to generation")
		seconds      = flag.Int("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced window plus the layer walk")
		repeat       = flag.Int("repeat", 0, "run the selected workloads this many times, each in a fresh process, and report every metric's spread against its bound")
		reseed       = flag.Bool("reseed", false, "with -repeat: repetition i uses seed+i instead of the same seed")
		out          = flag.String("out", "", "with -repeat: also write every run's result to this JSON file, for -compare")
		compare      = flag.Bool("compare", false, "compare two -repeat result files given as arguments: benchmark -compare a.json b.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	wls, err := selected(*workloadName)
	switch {
	case err != nil:
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare needs two result files")
		} else {
			err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
	case *repeat > 0:
		err = repeatRuns(os.Stdout, wls, *repeat, *seed, *reseed, *seconds, *out)
	default:
		err = runSelected(wls, options{
			size:   fullCity,
			seed:   *seed,
			window: time.Duration(*seconds) * time.Second,
			traced: *trace != 0,
			setups: 3,
			outDir: "benchmark/out",
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// selected resolves the -workload flag.
func selected(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	if w, ok := workloadByName(name); ok {
		return []workload{w}, nil
	}
	return nil, fmt.Errorf("unknown workload %q; have %s", name, strings.Join(workloadNames(), ", "))
}

// runSelected runs each workload in turn in this process, printing its
// table and then its one-line JSON result. A workload whose operations
// failed is reported and makes the command exit non-zero after the
// rest have run.
func runSelected(wls []workload, o options) error {
	if o.window < time.Second {
		return fmt.Errorf("-seconds must be at least 1")
	}
	var bad []string
	for _, wl := range wls {
		res, err := runWorkload(wl, o)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.name, err)
		}
		title := fmt.Sprintf("%s  seed %d  window %v  ", wl.name, o.seed, o.window)
		if o.traced {
			res.printTable(os.Stdout, title+"(per layer, traced)", perLayer)
		} else {
			res.printTable(os.Stdout, title+"(end to end, tracing off)", endToEnd,
				"client.notify_stream_p50_us", "client.prob_p50_us")
		}
		if err := res.printLine(os.Stdout); err != nil {
			return err
		}
		if !res.Correct {
			bad = append(bad, fmt.Sprintf("%s (%d of %d operations failed)", wl.name, res.Failed, res.Attempted))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(bad, "; "))
	}
	return nil
}

// ---------------------------------------------------------------------------
// -repeat and -compare: the paired-run procedure without ad-hoc scripts

// runRecord is one run's outcome as -repeat stores it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// repeatRuns runs every selected workload n times, each run in a fresh
// process as the benchmark's driver does, then prints each metric's
// median, quartiles and spreads against its bound.
func repeatRuns(w io.Writer, wls []workload, n int, seed int64, reseed bool, seconds int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var records []runRecord
	for i := 0; i < n; i++ {
		s := seed
		if reseed {
			s += int64(i)
		}
		for _, wl := range wls {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, wl.name, err)
			}
			lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
			rec := runRecord{Workload: wl.name, Seed: s}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); err != nil {
				return fmt.Errorf("run %d of %s: result line: %w", i+1, wl.name, err)
			}
			records = append(records, rec)
			fmt.Fprintf(os.Stderr, "benchmark: run %d/%d %s seed %d done\n", i+1, n, wl.name, s)
		}
	}
	if out != "" {
		body, err := json.MarshalIndent(records, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, body, 0o644); err != nil {
			return err
		}
	}
	printSpreads(w, records)
	return nil
}

// byWorkloadMetric groups the values of each end-to-end metric.
func byWorkloadMetric(records []runRecord) map[string]map[string][]float64 {
	g := make(map[string]map[string][]float64)
	for _, rec := range records {
		if g[rec.Workload] == nil {
			g[rec.Workload] = make(map[string][]float64)
		}
		for name, mv := range rec.Result.Metrics {
			g[rec.Workload][name] = append(g[rec.Workload][name], mv.Value)
		}
	}
	return g
}

func printSpreads(w io.Writer, records []runRecord) {
	g := byWorkloadMetric(records)
	for _, wl := range workloads {
		if g[wl.name] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s\n", wl.name)
		fmt.Fprintf(w, "%-24s %4s %12s %12s %12s %8s %8s %6s\n",
			"metric", "n", "median", "q1", "q3", "iqr/med", "rng/med", "bound")
		for _, sp := range endToEnd {
			s := spreadOf(g[wl.name][sp.name])
			verdict := ""
			// setup_s is bounded on its median only: its spread between
			// runs is allowed to exceed the bound.
			if sp.name != "setup_s" && s.iqrFrac > sp.bound {
				verdict = "  SPREAD EXCEEDS BOUND"
			}
			fmt.Fprintf(w, "%-24s %4d %12.3f %12.3f %12.3f %8.4f %8.4f %6.2f%s\n",
				sp.name, s.n, s.median, s.q1, s.q3, s.iqrFrac, s.rngFrac, sp.bound, verdict)
		}
	}
	var failed int64
	for _, rec := range records {
		failed += rec.Result.Failed
	}
	fmt.Fprintf(w, "operations failed across all runs: %d\n", failed)
}

// compareFiles prints, per workload and metric, both sides' medians and
// quartiles and whether side B is worse than side A by more than the
// metric's bound. Where the sides' own spreads are wider than the
// bound the verdict is "unresolved" unless every run of one side beats
// every run of the other.
func compareFiles(w io.Writer, pathA, pathB string) error {
	load := func(path string) (map[string]map[string][]float64, error) {
		body, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var records []runRecord
		if err := json.Unmarshal(body, &records); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return byWorkloadMetric(records), nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	for _, wl := range workloads {
		if a[wl.name] == nil || b[wl.name] == nil {
			continue
		}
		fmt.Fprintf(w, "== %s   A=%s  B=%s\n", wl.name, pathA, pathB)
		fmt.Fprintf(w, "%-24s %12s %25s %12s %25s %9s %6s  %s\n",
			"metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B worse", "bound", "verdict")
		for _, sp := range endToEnd {
			sa, sb := spreadOf(a[wl.name][sp.name]), spreadOf(b[wl.name][sp.name])
			worse := ratio(sb.median-sa.median, sa.median)
			if sp.better == "higher" {
				worse = -worse
			}
			fmt.Fprintf(w, "%-24s %12.3f %25s %12.3f %25s %+8.2f%% %6.2f  %s\n",
				sp.name, sa.median, fmt.Sprintf("[%.3f, %.3f]", sa.q1, sa.q3),
				sb.median, fmt.Sprintf("[%.3f, %.3f]", sb.q1, sb.q3),
				worse*100, sp.bound, verdict(sp, sa, sb, worse))
		}
	}
	return nil
}

func verdict(sp metricSpec, a, b spread, worse float64) string {
	// Disjoint ranges decide regardless of spread.
	aBetter, bBetter := a.max < b.min, b.max < a.min
	if sp.better == "higher" {
		aBetter, bBetter = bBetter, aBetter
	}
	noisy := a.iqrFrac > sp.bound || b.iqrFrac > sp.bound
	switch {
	case worse > sp.bound && (!noisy || aBetter):
		return "REGRESSION: exceeds bound"
	case noisy && !aBetter && !bBetter:
		return "unresolved: spread wider than bound"
	case bBetter:
		return "B better in every run"
	default:
		return "within bound"
	}
}
