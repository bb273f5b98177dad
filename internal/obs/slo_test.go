package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseSLOs(t *testing.T) {
	got, err := ParseSLOs("query=p99<10ms@30s,ingest=p99.9<2ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []SLO{
		{Name: "ingest", Metric: "spatialdb_insert_us", Percentile: 0.999, Target: 2 * time.Millisecond, Window: time.Minute},
		{Name: "query", Metric: "spatialdb_query_us", Percentile: 0.99, Target: 10 * time.Millisecond, Window: 30 * time.Second},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d objectives, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		// pNN/100 is inexact in float64 (p99.9 → 0.9990000000000001);
		// compare the percentile with a tolerance, the rest exactly.
		if math.Abs(g.Percentile-w.Percentile) > 1e-9 {
			t.Errorf("slo[%d].Percentile = %v, want ~%v", i, g.Percentile, w.Percentile)
		}
		g.Percentile = w.Percentile
		if g != w {
			t.Errorf("slo[%d] = %+v, want %+v", i, got[i], w)
		}
	}

	// Unknown names pass through as literal histogram names.
	got, err = ParseSLOs("fed_forward_us=p95<1ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Metric != "fed_forward_us" {
		t.Errorf("literal metric = %q, want fed_forward_us", got[0].Metric)
	}

	// Empty segments are skipped, not errors.
	if got, err = ParseSLOs(" , ingest=p99<2ms, ", nil); err != nil || len(got) != 1 {
		t.Errorf("ParseSLOs with blanks = (%v, %v), want one objective", got, err)
	}

	for _, bad := range []string{
		"noequals",
		"=p99<2ms",
		"x=99<2ms",
		"x=p0<2ms",
		"x=p100<2ms",
		"x=pfoo<2ms",
		"x=p99<zzz",
		"x=p99<-2ms",
		"x=p99<2ms@bogus",
		"x=p99<2ms@-5s",
	} {
		if _, err := ParseSLOs(bad, nil); err == nil {
			t.Errorf("ParseSLOs(%q) accepted, want error", bad)
		}
	}
}

// TestSLOMetricNamesStable pins the exported slo_* names: dashboards
// and the cluster aggregator key on these strings, so a rename must
// fail here first.
func TestSLOMetricNamesStable(t *testing.T) {
	if got := LabeledName("slo_burn_rate", "slo", "ingest"); got != `slo_burn_rate{slo="ingest"}` {
		t.Fatalf("LabeledName = %q", got)
	}
	reg := NewRegistry()
	slos, err := ParseSLOs("ingest=p99<2ms@1s", nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSLOTracker(reg, slos, time.Hour) // ticked manually
	tr.Tick()
	snap := reg.Snapshot()
	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, want := range []string{
		"slo_breaches_total",
		`slo_breaches_total{slo="ingest"}`,
		`slo_burn_rate{slo="ingest"}`,
		`slo_attained_us{slo="ingest"}`,
		`slo_target_us{slo="ingest"}`,
		`slo_healthy{slo="ingest"}`,
	} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	if got := reg.Gauge(LabeledName("slo_target_us", "slo", "ingest")).Value(); got != 2000 {
		t.Errorf("slo_target_us = %g, want 2000", got)
	}
}

// exposition is one /metrics line: a metric name, optional labels
// whose values escape backslash, double quote and newline, and a value.
var exposition = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"` +
	`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+)$`)

// TestMetricsTextEscapesSLOLabels names objectives with a double quote
// and a backslash: every line /metrics then prints must still parse,
// the slo label escaped by LabeledName.
func TestMetricsTextEscapesSLOLabels(t *testing.T) {
	reg := NewRegistry()
	var slos []SLO
	for _, name := range []string{`in"gest`, `lo\cate`} {
		slos = append(slos, SLO{Name: name, Metric: "spatialdb_insert_us", Percentile: 0.99, Target: time.Millisecond, Window: time.Second})
	}
	NewSLOTracker(reg, slos, time.Hour).Tick()
	text := MetricsTextString(reg)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		m := exposition.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable /metrics line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Errorf("/metrics line %q: value: %v", line, err)
		}
	}
	for _, want := range []string{
		`slo_target_us{slo="in\"gest"} 1000`,
		`slo_target_us{slo="lo\\cate"} 1000`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

// TestSLOTrackerBreachLifecycle drives a tracker through healthy →
// breached → recovered → breached again with injected clock times and
// checks the transition counting: slo_breaches_total moves only on
// healthy→breached edges, never while a breach persists.
func TestSLOTrackerBreachLifecycle(t *testing.T) {
	reg := NewRegistry()
	slos, err := ParseSLOs("ingest=p99<2ms", nil) // window 1m
	if err != nil {
		t.Fatal(err)
	}
	tr := NewSLOTracker(reg, slos, time.Hour)
	hist := reg.Histogram("spatialdb_insert_us")
	breaches := reg.Counter("slo_breaches_total")
	healthy := reg.Gauge(LabeledName("slo_healthy", "slo", "ingest"))

	t0 := time.Unix(1_000_000, 0)
	tr.tickAt(t0)
	if st := tr.Status()[0]; st.Breached || st.Samples != 0 {
		t.Fatalf("empty window evaluated as %+v", st)
	}

	for i := 0; i < 200; i++ {
		hist.Observe(100) // 100us, well under the 2ms target
	}
	tr.tickAt(t0.Add(10 * time.Second))
	if st := tr.Status()[0]; st.Breached || st.Samples != 200 {
		t.Fatalf("fast window evaluated as %+v", st)
	}
	if tr.Breached() {
		t.Fatal("Breached() true on a healthy window")
	}
	if healthy.Value() != 1 {
		t.Fatal("slo_healthy != 1 while healthy")
	}

	for i := 0; i < 200; i++ {
		hist.Observe(5e6) // 5s, overflow bucket
	}
	tr.tickAt(t0.Add(20 * time.Second))
	st := tr.Status()[0]
	if !st.Breached || !tr.Breached() {
		t.Fatalf("slow burst not breached: %+v", st)
	}
	if st.BurnRate <= 1 {
		t.Errorf("burn rate = %g, want > 1 during a breach", st.BurnRate)
	}
	if got := breaches.Value(); got != 1 {
		t.Fatalf("slo_breaches_total = %d after first breach, want 1", got)
	}
	if healthy.Value() != 0 {
		t.Fatal("slo_healthy != 0 while breached")
	}

	// A persisting breach is not a new transition.
	tr.tickAt(t0.Add(30 * time.Second))
	if got := breaches.Value(); got != 1 {
		t.Fatalf("slo_breaches_total = %d while breach persists, want 1", got)
	}

	// Once the whole burst ages past the window the objective recovers:
	// the baseline snapshot already contains the slow counts, the delta
	// is empty, and zero samples cannot breach.
	for _, dt := range []time.Duration{95 * time.Second, 100 * time.Second} {
		tr.tickAt(t0.Add(dt))
	}
	if st := tr.Status()[0]; st.Breached || st.Samples != 0 {
		t.Fatalf("post-burst window evaluated as %+v, want recovered", st)
	}
	if healthy.Value() != 1 {
		t.Fatal("slo_healthy != 1 after recovery")
	}

	// A second burst is a second transition.
	for i := 0; i < 50; i++ {
		hist.Observe(5e6)
	}
	tr.tickAt(t0.Add(110 * time.Second))
	if got := breaches.Value(); got != 2 {
		t.Fatalf("slo_breaches_total = %d after second breach, want 2", got)
	}
	if got := reg.Counter(LabeledName("slo_breaches_total", "slo", "ingest")).Value(); got != 2 {
		t.Fatalf(`slo_breaches_total{slo="ingest"} = %d, want 2`, got)
	}
}

// TestSLOTrackerStartStop exercises the background loop: a tight
// interval must tick on its own, and Stop must be idempotent. Samples
// counts observations inside the window, so the test keeps observing:
// one observation made before Start shows only between the loop's first
// tick and its second.
func TestSLOTrackerStartStop(t *testing.T) {
	reg := NewRegistry()
	slos, _ := ParseSLOs("ingest=p99<2ms@600ms", nil)
	tr := NewSLOTracker(reg, slos, time.Millisecond)
	h := reg.Histogram("spatialdb_insert_us")
	tr.Start()
	deadline := time.Now().Add(2 * time.Second)
	for tr.Status()[0].Samples == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background loop never sampled")
		}
		h.Observe(100)
		time.Sleep(time.Millisecond)
	}
	tr.Stop()
	tr.Stop() // idempotent

	// Stop without Start must not hang either.
	tr2 := NewSLOTracker(reg, slos, time.Minute)
	tr2.Stop()
}

// TestQuantileFromBucketsMatchesHistogram checks the exported
// estimator agrees with Histogram.Quantile on identical counts — the
// property the cluster merge and SLO window math rely on.
func TestQuantileFromBucketsMatchesHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x_us")
	for _, v := range []float64{1, 3, 7, 40, 90, 450, 800, 3000, 70000, 2e6} {
		h.Observe(v)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		want := h.Quantile(q)
		got := QuantileFromBuckets(h.Bounds(), h.BucketCounts(), q)
		if got != want {
			t.Errorf("q=%g: QuantileFromBuckets = %g, Histogram.Quantile = %g", q, got, want)
		}
	}
	if got := QuantileFromBuckets(h.Bounds(), make([]uint64, len(h.BucketCounts())), 0.5); got != 0 {
		t.Errorf("empty counts quantile = %g, want 0", got)
	}
}

// TestDebugTracesQuery pins the /debug/traces contract: ?n= clamps to
// the ring size, ?id= is an exact-match filter, and malformed values
// are a 400, not a silent default.
func TestDebugTracesQuery(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, 8)
	withTracing(t, true)
	var ids []string
	for i := 0; i < 3; i++ {
		id := tr.Begin()
		tr.SpanD(id, "stage", "d1", time.Now().Add(-time.Millisecond))
		ids = append(ids, id)
	}
	srv := httptest.NewServer(DebugMux(reg, tr))
	defer srv.Close()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	decode := func(body []byte) []struct {
		ID    string `json:"id"`
		Spans []struct {
			Stage  string `json:"stage"`
			Daemon string `json:"daemon"`
		} `json:"spans"`
	} {
		t.Helper()
		var out []struct {
			ID    string `json:"id"`
			Spans []struct {
				Stage  string `json:"stage"`
				Daemon string `json:"daemon"`
			} `json:"spans"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad JSON %q: %v", body, err)
		}
		return out
	}

	// ?n beyond the ring clamps to what is recorded.
	code, body := get("/debug/traces?n=999999")
	if code != http.StatusOK {
		t.Fatalf("?n=999999 -> %d", code)
	}
	if got := decode(body); len(got) != 3 {
		t.Errorf("?n=999999 returned %d traces, want 3 (clamped)", len(got))
	}

	code, body = get("/debug/traces?n=2")
	if got := decode(body); code != http.StatusOK || len(got) != 2 {
		t.Errorf("?n=2 -> %d traces (status %d), want 2", len(got), code)
	}

	// Exact-match id filter, including the daemon label on spans.
	code, body = get("/debug/traces?id=" + ids[1])
	got := decode(body)
	if code != http.StatusOK || len(got) != 1 || got[0].ID != ids[1] {
		t.Fatalf("?id= filter -> status %d body %s", code, body)
	}
	if len(got[0].Spans) != 1 || got[0].Spans[0].Daemon != "d1" {
		t.Errorf("span daemon label missing: %+v", got[0].Spans)
	}

	// Unknown id: empty array, still 200.
	code, body = get("/debug/traces?id=nope")
	if got := decode(body); code != http.StatusOK || len(got) != 0 {
		t.Errorf("?id=nope -> %d traces (status %d), want none", len(got), code)
	}

	// Malformed and negative n are client errors.
	for _, q := range []string{"?n=abc", "?n=-1", "?n=1.5"} {
		if code, body := get("/debug/traces" + q); code != http.StatusBadRequest {
			t.Errorf("%s -> status %d (%s), want 400", q, code, strings.TrimSpace(string(body)))
		}
	}
}
