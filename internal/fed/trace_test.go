package fed_test

import (
	"fmt"
	"testing"
	"time"

	"middlewhere/internal/fed"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// withTracing flips the global tracing flag for one test. The default
// tracer is also reset so span lookups see only this test's traces.
func withTracing(t *testing.T) {
	t.Helper()
	was := obs.Enabled()
	obs.SetEnabled(true)
	obs.DefaultTracer().Reset()
	t.Cleanup(func() { obs.SetEnabled(was) })
}

// spanStages returns "stage@daemon" for every span of a trace.
func spanStages(t *testing.T, id string) []string {
	t.Helper()
	tr, ok := obs.DefaultTracer().Get(id)
	if !ok {
		t.Fatalf("trace %s not in the ring", id)
	}
	out := make([]string, 0, len(tr.Spans))
	for _, sp := range tr.Spans {
		out = append(out, sp.Stage+"@"+sp.Daemon)
	}
	return out
}

func hasSpan(stages []string, want string) bool {
	for _, s := range stages {
		if s == want {
			return true
		}
	}
	return false
}

// traced builds a reading carrying an obs trace ID, as the remote
// ingest path stamps them.
func traced(id, object string, floor int, at time.Time) model.Reading {
	r := fReading(object, floor, 5, 5, at)
	r.Trace = id
	return r
}

// TestFedTracePropagation is the tentpole integration check: one trace
// ID begun at the entry daemon spans the owner-side store too. Both
// daemons run in one process sharing the global tracer, so the
// per-span daemon labels are what prove the hop happened.
func TestFedTracePropagation(t *testing.T) {
	withTracing(t)
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha := f.daemons["alpha"]

	id := obs.BeginTrace()
	if id == "" {
		t.Fatal("BeginTrace returned no ID with tracing enabled")
	}
	if err := alpha.svc.IngestBatch([]model.Reading{traced(id, "bob", 1, time.Now())}); err != nil {
		t.Fatal(err)
	}
	if got := rowsFor(f.daemons["beta"], "bob", time.Now().Add(-time.Minute)); got != 1 {
		t.Fatalf("beta rows = %d, want 1 (forwarded)", got)
	}
	stages := spanStages(t, id)
	if !hasSpan(stages, "fed_forward@alpha") {
		t.Errorf("trace %v missing fed_forward@alpha", stages)
	}
	if !hasSpan(stages, "fed_ingest@beta") {
		t.Errorf("trace %v missing fed_ingest@beta (owner-side store)", stages)
	}
}

// TestFedQueryTracePropagation: a traced federated scan records the
// entry daemon's fan-out/merge stages and the peer's region_scan under
// the same trace ID.
func TestFedQueryTracePropagation(t *testing.T) {
	withTracing(t)
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha, beta := f.daemons["alpha"], f.daemons["beta"]
	base := time.Now()
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("ann", 0, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}
	if err := beta.svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}

	id := obs.BeginTrace()
	objs, unavailable, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0.1, true, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(unavailable) != 0 {
		t.Fatalf("unavailable = %v", unavailable)
	}
	if _, ok := objs["bob"]; !ok {
		t.Fatalf("federated scan missed bob: %v", objs)
	}
	stages := spanStages(t, id)
	for _, want := range []string{
		"fed_local_scan@alpha", "fed_fanout@alpha", "fed_merge@alpha", "region_scan@beta",
	} {
		if !hasSpan(stages, want) {
			t.Errorf("trace %v missing %s", stages, want)
		}
	}
}

// TestFedTracePropagationAcrossRestart: after the owner daemon crashes
// and rejoins (new port, bumped placement version), a freshly traced
// ingest still produces one cross-daemon trace.
func TestFedTracePropagationAcrossRestart(t *testing.T) {
	withTracing(t)
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha, beta := f.daemons["alpha"], f.daemons["beta"]

	f.cluster.Kill("beta")
	if err := f.cluster.Restart("beta"); err != nil {
		t.Fatal(err)
	}
	f.awaitPlacement(2)

	// The entry daemon may still hold the pre-restart address for a
	// refresh interval; retry with fresh traces until a forward lands
	// (failed attempts legitimately fall back to local storage).
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; ; i++ {
		obj := fmt.Sprintf("bob-%d", i)
		id := obs.BeginTrace()
		if err := alpha.svc.IngestBatch([]model.Reading{traced(id, obj, 1, time.Now())}); err != nil {
			t.Fatal(err)
		}
		if rowsFor(beta, obj, time.Now().Add(-time.Minute)) == 1 {
			stages := spanStages(t, id)
			if !hasSpan(stages, "fed_forward@alpha") || !hasSpan(stages, "fed_ingest@beta") {
				t.Fatalf("post-restart trace %v missing forward/ingest hops", stages)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no forward reached the restarted owner")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestPeerStateCounters: the health surface's per-peer call/failure/
// retry/breaker-open counters move with traffic.
func TestPeerStateCounters(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha := f.daemons["alpha"]
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, time.Now())}); err != nil {
		t.Fatal(err)
	}
	peerState := func(name string) fed.PeerState {
		t.Helper()
		for _, p := range alpha.fedRouter().PeerStates() {
			if p.Name == name {
				return p
			}
		}
		t.Fatalf("no peer state for %s", name)
		return fed.PeerState{}
	}
	before := peerState("beta")
	if before.Calls == 0 {
		t.Fatalf("after a forward: %+v, want Calls>0", before)
	}

	f.cluster.Kill("beta")
	for i := 0; i < 3; i++ {
		_ = alpha.svc.IngestBatch([]model.Reading{fReading(fmt.Sprintf("b%d", i), 1, 5, 5, time.Now())})
	}
	st := peerState("beta")
	if st.Failures <= before.Failures || st.Retries <= before.Retries {
		t.Errorf("after killing the owner: %+v (was %+v), want Failures and Retries to grow", st, before)
	}
	if st.BreakerOpens == 0 {
		t.Errorf("breaker never opened: %+v", st)
	}
}

// TestFedMetricNamesStable pins the fed_* registry names the cluster
// aggregator and dashboards key on; a rename must fail here first.
func TestFedMetricNamesStable(t *testing.T) {
	if got := obs.LabeledName("fed_peer_calls_total", "peer", "cs-2"); got != `fed_peer_calls_total{peer="cs-2"}` {
		t.Fatalf("LabeledName = %q", got)
	}
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha := f.daemons["alpha"]
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, time.Now())}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0.1, false, ""); err != nil {
		t.Fatal(err)
	}
	snap := obs.Default().Snapshot()
	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, want := range []string{
		"fed_queries_total",
		"fed_partial_results_total",
		"fed_migrations_total",
		"fed_migration_replays_total",
		"fed_forwarded_readings_total",
		"fed_ingest_fallback_local_total",
		"fed_placement_refreshes_total",
		"fed_placement_version",
		`fed_peer_calls_total{peer="beta"}`,
		`fed_peer_failures_total{peer="beta"}`,
		`fed_peer_retries_total{peer="beta"}`,
		`fed_breaker_opens_total{peer="beta"}`,
		`fed_breaker_state{peer="beta"}`,
	} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
}
