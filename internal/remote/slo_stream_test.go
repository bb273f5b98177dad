package remote

import (
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
)

// TestStreamReplayDoesNotExtendTrace pins the replay/trace interplay:
// a duplicate streaming seq is re-acked before the batch is decoded,
// so the replayed frame can neither re-store readings nor add spans —
// the trace ring is exactly as it was after the first delivery.
func TestStreamReplayDoesNotExtendTrace(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })
	obs.DefaultTracer().Reset()

	c, svc := startStack(t)
	registerStreamSensor(t, c, "rp-s")
	rpc, err := mwrpc.Dial(c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	acks := make(chan streamAckDTO, 4)
	rpc.OnStreamAck(func(id, seq uint64, payload []byte) {
		a, err := decodeStreamAck(payload)
		if err != nil {
			t.Errorf("ack decode: %v", err)
			return
		}
		acks <- a
	})
	var open streamOpenReply
	if err := mwrpc.CallJSON(rpc, "mw.streamOpen", "", struct{}{}, &open); err != nil {
		t.Fatal(err)
	}

	trace := obs.BeginTrace()
	batch := []model.Reading{streamReading("rp-s", "rp-a", t0)}
	send := func() error {
		return rpc.StreamSend(open.StreamID, 1, trace, func(b []byte) []byte {
			return AppendReadings(b, batch)
		})
	}

	if err := send(); err != nil {
		t.Fatal(err)
	}
	select {
	case a := <-acks:
		if a.BatchAccepted != 1 {
			t.Fatalf("first ack = %+v, want 1 accepted", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first ack never arrived")
	}

	// Pipeline spans land asynchronously after the ack; wait for the
	// span count under our trace ID to stabilise before replaying.
	spanCount := func() int {
		tr, ok := obs.DefaultTracer().Get(trace)
		if !ok {
			return 0
		}
		return len(tr.Spans)
	}
	var before int
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := spanCount()
		time.Sleep(25 * time.Millisecond)
		if n > 0 && spanCount() == n {
			before = n
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never stabilised (spans=%d)", trace, n)
		}
	}
	ringBefore := obs.DefaultTracer().Len()

	if err := send(); err != nil { // same seq: a replay
		t.Fatal(err)
	}
	select {
	case a := <-acks:
		if a.BatchAccepted != 0 || a.Accepted != 1 {
			t.Fatalf("replay ack = %+v, want cumulative 1, batch 0", a)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replay ack never arrived")
	}
	time.Sleep(50 * time.Millisecond) // grace for any (wrong) async spans

	if got := obs.DefaultTracer().Len(); got != ringBefore {
		t.Errorf("trace ring grew %d -> %d on a replayed frame", ringBefore, got)
	}
	if got := spanCount(); got != before {
		t.Errorf("trace %s grew %d -> %d spans on a replayed frame", trace, before, got)
	}
	if got := svc.Health().Ingested; got != 1 {
		t.Errorf("service ingested %d, want 1", got)
	}
}

// TestHealthReportsSLOs: a server wired with an SLO tracker surfaces
// each objective's status — and a breach — through mw.health.
func TestHealthReportsSLOs(t *testing.T) {
	svc, err := core.New(building.PaperFloor())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)

	reg := obs.NewRegistry()
	slos, err := obs.ParseSLOs("probe_us=p99<1ms@1s", nil)
	if err != nil {
		t.Fatal(err)
	}
	tracker := obs.NewSLOTracker(reg, slos, time.Hour) // ticked manually
	srv.SetSLOTracker(tracker)

	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	c, err := DialLocation(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	h, err := c.ServerHealth()
	if err != nil {
		t.Fatal(err)
	}
	if len(h.SLOs) != 1 || h.SLOs[0].Name != "probe_us" || h.SLOs[0].Breached {
		t.Fatalf("initial SLOs = %+v, want one healthy probe_us", h.SLOs)
	}
	if h.SLOs[0].TargetUs != 1000 {
		t.Errorf("TargetUs = %g, want 1000", h.SLOs[0].TargetUs)
	}

	tracker.Tick() // baseline
	for i := 0; i < 100; i++ {
		reg.Histogram("probe_us").Observe(5e6)
	}
	tracker.Tick()
	h, err = c.ServerHealth()
	if err != nil {
		t.Fatal(err)
	}
	s := h.SLOs[0]
	if !s.Breached || s.Samples != 100 || s.AttainedUs <= s.TargetUs || s.BurnRate <= 1 {
		t.Fatalf("post-burst SLO = %+v, want a breach with 100 samples", s)
	}
}
