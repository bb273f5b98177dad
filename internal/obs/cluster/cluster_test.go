// Tests live in an external package so they can assemble real scrape
// targets (mwrpc servers, the registry) exactly as mwctl sees them.
package cluster_test

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/obs/cluster"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
)

// statsOf renders a registry the way the daemon's mw.stats handler
// does: cumulative buckets with Le < 0 marking the overflow bucket.
func statsOf(reg *obs.Registry) remote.StatsDTO {
	snap := reg.Snapshot()
	out := remote.StatsDTO{}
	if len(snap.Counters) > 0 {
		out.Counters = make(map[string]uint64)
		for _, c := range snap.Counters {
			out.Counters[c.Name] = c.Value
		}
	}
	if len(snap.Gauges) > 0 {
		out.Gauges = make(map[string]float64)
		for _, g := range snap.Gauges {
			out.Gauges[g.Name] = g.Value
		}
	}
	for _, h := range snap.Histograms {
		hd := remote.HistogramDTO{Name: h.Name, Count: h.Count, Sum: h.Sum, P50: h.P50, P95: h.P95, P99: h.P99}
		for _, b := range h.Buckets {
			le := b.Le
			if math.IsInf(le, 1) {
				le = -1
			}
			hd.Buckets = append(hd.Buckets, remote.BucketDTO{Le: le, Count: b.Count})
		}
		out.Histograms = append(out.Histograms, hd)
	}
	return out
}

func scrape(name string, st remote.StatsDTO) cluster.Scrape {
	return cluster.Scrape{Daemon: cluster.Daemon{Name: name, Addr: "x"}, Stats: st}
}

// TestMergeCountersAndGauges property-tests the scalar semantics over
// seeded random inputs: counters sum, gauges sum, *_version gauges
// take the max.
func TestMergeCountersAndGauges(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		n := 2 + rng.Intn(4)
		wantCounters := make(map[string]uint64)
		wantGauges := make(map[string]float64)
		wantVersions := make(map[string]float64)
		var scrapes []cluster.Scrape
		for d := 0; d < n; d++ {
			st := remote.StatsDTO{
				Counters: make(map[string]uint64),
				Gauges:   make(map[string]float64),
			}
			for c := 0; c < 5; c++ {
				name := fmt.Sprintf("ctr_%d_total", rng.Intn(8))
				v := uint64(rng.Intn(1000))
				st.Counters[name] += v
				wantCounters[name] += v
			}
			for g := 0; g < 3; g++ {
				name := fmt.Sprintf("gauge_%d", rng.Intn(4))
				v := float64(rng.Intn(100))
				st.Gauges[name] += v
				wantGauges[name] += v
			}
			ver := float64(rng.Intn(50))
			st.Gauges["fed_placement_version"] = ver
			if ver > wantVersions["fed_placement_version"] || d == 0 {
				if ver > wantVersions["fed_placement_version"] {
					wantVersions["fed_placement_version"] = ver
				}
			}
			scrapes = append(scrapes, scrape(fmt.Sprintf("d%d", d), st))
		}
		merged, unavailable := cluster.Merge(scrapes)
		if len(unavailable) != 0 {
			t.Fatalf("round %d: unexpected unavailable %v", round, unavailable)
		}
		for name, want := range wantCounters {
			if got := merged.Counters[name]; got != want {
				t.Fatalf("round %d: counter %s = %d, want %d (sum)", round, name, got, want)
			}
		}
		for name, want := range wantGauges {
			if got := merged.Gauges[name]; math.Abs(got-want) > 1e-9 {
				t.Fatalf("round %d: gauge %s = %g, want %g (sum)", round, name, got, want)
			}
		}
		if got := merged.Gauges["fed_placement_version"]; got != wantVersions["fed_placement_version"] {
			t.Fatalf("round %d: version gauge = %g, want max %g", round, got, wantVersions["fed_placement_version"])
		}
	}
}

// TestMergeHistogramsExact property-tests the tentpole claim: merging
// per-daemon bucket snapshots is indistinguishable from one histogram
// that observed everything — same count, sum, buckets, and quantiles.
func TestMergeHistogramsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 10; round++ {
		n := 2 + rng.Intn(3)
		regs := make([]*obs.Registry, n)
		combined := obs.NewRegistry()
		all := combined.Histogram("pipeline_us")
		var scrapes []cluster.Scrape
		for d := 0; d < n; d++ {
			regs[d] = obs.NewRegistry()
			h := regs[d].Histogram("pipeline_us")
			for i := 0; i < 50+rng.Intn(200); i++ {
				v := math.Exp(rng.Float64() * 15) // spans the bucket range incl. overflow
				h.Observe(v)
				all.Observe(v)
			}
			scrapes = append(scrapes, scrape(fmt.Sprintf("d%d", d), statsOf(regs[d])))
		}
		merged, _ := cluster.Merge(scrapes)
		if len(merged.Histograms) != 1 {
			t.Fatalf("round %d: %d histograms, want 1", round, len(merged.Histograms))
		}
		got := merged.Histograms[0]
		want := statsOf(combined).Histograms[0]
		if got.Count != want.Count {
			t.Fatalf("round %d: count %d, want %d", round, got.Count, want.Count)
		}
		if math.Abs(got.Sum-want.Sum) > 1e-6*math.Abs(want.Sum) {
			t.Fatalf("round %d: sum %g, want %g", round, got.Sum, want.Sum)
		}
		if !reflect.DeepEqual(got.Buckets, want.Buckets) {
			t.Fatalf("round %d: merged buckets differ from combined histogram", round)
		}
		for _, q := range []struct {
			name      string
			got, want float64
		}{{"p50", got.P50, want.P50}, {"p95", got.P95, want.P95}, {"p99", got.P99, want.P99}} {
			if math.Abs(q.got-q.want) > 1e-9 {
				t.Fatalf("round %d: %s = %g, want %g (recomputed from merged buckets)", round, q.name, q.got, q.want)
			}
		}
	}
}

// TestMergeHistogramMismatchedBounds pins the honesty fallback: mixed
// bucket layouts keep count and sum but refuse to fabricate quantiles.
func TestMergeHistogramMismatchedBounds(t *testing.T) {
	a := remote.StatsDTO{Histograms: []remote.HistogramDTO{{
		Name: "x_us", Count: 10, Sum: 100, P50: 5,
		Buckets: []remote.BucketDTO{{Le: 1, Count: 4}, {Le: -1, Count: 10}},
	}}}
	b := remote.StatsDTO{Histograms: []remote.HistogramDTO{{
		Name: "x_us", Count: 6, Sum: 60, P50: 7,
		Buckets: []remote.BucketDTO{{Le: 2, Count: 3}, {Le: -1, Count: 6}},
	}}}
	merged, _ := cluster.Merge([]cluster.Scrape{scrape("a", a), scrape("b", b)})
	h := merged.Histograms[0]
	if h.Count != 16 || h.Sum != 160 {
		t.Errorf("count/sum = %d/%g, want 16/160", h.Count, h.Sum)
	}
	if h.P50 != 0 || h.P95 != 0 || h.P99 != 0 || h.Buckets != nil {
		t.Errorf("mismatched bounds must zero quantiles and drop buckets: %+v", h)
	}
}

// TestMergeTraces checks cross-daemon stitching: same trace ID from
// two daemons collapses into one span tree anchored at the earliest
// begin, spans inherit the scraped daemon's name, and traces order
// newest-first.
func TestMergeTraces(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	entry := remote.StatsDTO{Traces: []remote.TraceDTO{{
		ID:    "tr-1",
		Begin: t0.Format(time.RFC3339Nano),
		Spans: []remote.SpanDTO{
			{Stage: "route", OffsetUs: 10, DurUs: 5},
			{Stage: "fed_forward", Daemon: "entry", OffsetUs: 20, DurUs: 500},
		},
	}}}
	// Owner adopted the trace 100us later; its span offsets are relative
	// to its own (later) begin.
	owner := remote.StatsDTO{Traces: []remote.TraceDTO{
		{
			ID:    "tr-1",
			Begin: t0.Add(100 * time.Microsecond).Format(time.RFC3339Nano),
			Spans: []remote.SpanDTO{{Stage: "fed_ingest", OffsetUs: 50, DurUs: 30}},
		},
		{
			ID:    "tr-2",
			Begin: t0.Add(time.Second).Format(time.RFC3339Nano),
			Spans: []remote.SpanDTO{{Stage: "store", OffsetUs: 1, DurUs: 2}},
		},
	}}
	got := cluster.MergeTraces([]cluster.Scrape{
		{Daemon: cluster.Daemon{Name: "entry"}, Stats: entry},
		{Daemon: cluster.Daemon{Name: "owner"}, Stats: owner},
	})
	if len(got) != 2 {
		t.Fatalf("merged %d traces, want 2", len(got))
	}
	if got[0].ID != "tr-2" || got[1].ID != "tr-1" {
		t.Fatalf("order = %s, %s; want newest-first tr-2, tr-1", got[0].ID, got[1].ID)
	}
	tr := got[1]
	if tr.Begin != t0.Format(time.RFC3339Nano) {
		t.Errorf("begin = %s, want the earliest %s", tr.Begin, t0.Format(time.RFC3339Nano))
	}
	var stages []string
	for _, sp := range tr.Spans {
		stages = append(stages, fmt.Sprintf("%s@%s+%g", sp.Stage, sp.Daemon, sp.OffsetUs))
	}
	want := []string{"route@entry+10", "fed_forward@entry+20", "fed_ingest@owner+150"}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("spans = %v, want %v (owner re-anchored +100us, daemons filled)", stages, want)
	}
	if tr.TotalUs != 520 {
		t.Errorf("TotalUs = %g, want 520 (fed_forward end)", tr.TotalUs)
	}

	// Reversed scrape order must re-anchor the other way to the same tree.
	rev := cluster.MergeTraces([]cluster.Scrape{
		{Daemon: cluster.Daemon{Name: "owner"}, Stats: owner},
		{Daemon: cluster.Daemon{Name: "entry"}, Stats: entry},
	})
	for _, r := range rev {
		if r.ID != "tr-1" {
			continue
		}
		var stages2 []string
		for _, sp := range r.Spans {
			stages2 = append(stages2, fmt.Sprintf("%s@%s+%g", sp.Stage, sp.Daemon, sp.OffsetUs))
		}
		if !reflect.DeepEqual(stages2, want) {
			t.Errorf("reversed order spans = %v, want %v", stages2, want)
		}
	}
}

// fakeDaemon serves a canned mw.stats over a real mwrpc listener.
func fakeDaemon(t *testing.T, st remote.StatsDTO) string {
	t.Helper()
	srv := mwrpc.NewServer()
	srv.Register("mw.stats", mwrpc.JSONHandler(func(_ *mwrpc.ServerConn, _ remote.StatsArgs, _ string) (any, error) {
		return st, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return addr
}

// TestFetchAgainstLiveDaemons runs the whole path — registry
// discovery, parallel scrape, merge — against two live fake daemons
// and one dead registration.
func TestFetchAgainstLiveDaemons(t *testing.T) {
	reg := registry.NewServer(time.Now)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	r1 := obs.NewRegistry()
	r1.Counter("ingest_total").Add(7)
	r1.Histogram("pipeline_us").Observe(10)
	r2 := obs.NewRegistry()
	r2.Counter("ingest_total").Add(5)
	r2.Histogram("pipeline_us").Observe(3000)

	addr1 := fakeDaemon(t, statsOf(r1))
	addr2 := fakeDaemon(t, statsOf(r2))

	cli, err := registry.Dial(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	for name, addr := range map[string]string{
		"cs-1": addr1, "cs-2": addr2, "cs-dead": "127.0.0.1:1",
	} {
		if err := cli.Register(name, addr, time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	st, daemons, unavailable, err := cluster.Fetch(regAddr, 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(daemons) != 3 {
		t.Fatalf("discovered %d daemons, want 3", len(daemons))
	}
	if !reflect.DeepEqual(unavailable, []string{"cs-dead"}) {
		t.Fatalf("unavailable = %v, want [cs-dead]", unavailable)
	}
	if got := st.Counters["ingest_total"]; got != 12 {
		t.Errorf("ingest_total = %d, want 12 (7+5)", got)
	}
	if len(st.Histograms) != 1 || st.Histograms[0].Count != 2 {
		t.Errorf("merged histogram = %+v, want one with count 2", st.Histograms)
	}
}

func TestFetchEmptyDeploymentErrors(t *testing.T) {
	reg := registry.NewServer(time.Now)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	if _, _, _, err := cluster.Fetch(regAddr, 0, time.Second); err == nil {
		t.Fatal("Fetch on an empty deployment must error, not report a healthy all-zero cluster")
	}
}

// TestMetricsHandler checks the registry-side /metrics/cluster surface:
// exposition text with coverage meta-lines and merged values.
func TestMetricsHandler(t *testing.T) {
	reg := registry.NewServer(time.Now)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	r1 := obs.NewRegistry()
	r1.Counter("ingest_total").Add(3)
	cli, err := registry.Dial(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Register("cs-1", fakeDaemon(t, statsOf(r1)), time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := cli.Register("cs-dead", "127.0.0.1:1", time.Minute); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(cluster.MetricsHandler(regAddr, 2*time.Second))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, line := range []string{
		"cluster_daemons_scraped 1",
		"cluster_daemons_unavailable 1",
		"# unavailable daemon: cs-dead",
		"ingest_total 3",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("exposition missing %q in:\n%s", line, text)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

// TestDiscoverPrefersPlacementAddr: when a daemon appears in both the
// service table and the placement map, the placement address (lease
// heartbeaten) wins.
func TestDiscoverPrefersPlacementAddr(t *testing.T) {
	reg := registry.NewServer(time.Now)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	cli, err := registry.Dial(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.Register("cs-1", "127.0.0.1:1111", time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.PlaceShards("cs-1", "127.0.0.1:2222", []string{"CS/F0"}, time.Minute); err != nil {
		t.Fatal(err)
	}
	daemons, err := cluster.Discover(regAddr)
	if err != nil {
		t.Fatal(err)
	}
	if len(daemons) != 1 || daemons[0].Addr != "127.0.0.1:2222" {
		t.Fatalf("daemons = %+v, want cs-1 at the placement addr", daemons)
	}
	sort.Slice(daemons, func(i, j int) bool { return daemons[i].Name < daemons[j].Name })
}
