package remote

import (
	"errors"
	"testing"
	"time"

	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// TestRemoteIngestBatch sends a batch through the wire and checks the
// readings landed fused on the server side.
func TestRemoteIngestBatch(t *testing.T) {
	c, svc := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("ubi-b", spec); err != nil {
		t.Fatal(err)
	}
	rs := []model.Reading{
		{SensorID: "ubi-b", MObjectID: "alice",
			Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0},
		{SensorID: "ubi-b", MObjectID: "bob",
			Location: glob.MustParse("CS/Floor3/(340,15)"), Time: t0},
	}
	if err := c.IngestBatch(rs); err != nil {
		t.Fatal(err)
	}
	for _, obj := range []string{"alice", "bob"} {
		loc, err := c.Locate(obj)
		if err != nil {
			t.Fatalf("%s: %v", obj, err)
		}
		if loc.Object != obj {
			t.Errorf("located %q, want %q", loc.Object, obj)
		}
	}
	if got := svc.Health().Ingested; got != 2 {
		t.Errorf("server ingested = %d, want 2", got)
	}
}

func TestRemoteIngestBatchEmpty(t *testing.T) {
	c, _ := startStack(t)
	if err := c.IngestBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestRemoteIngestBatchBadReading(t *testing.T) {
	c, _ := startStack(t)
	rs := []model.Reading{{SensorID: "nope", MObjectID: "alice",
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0}}
	if err := c.IngestBatch(rs); err == nil {
		t.Error("unknown sensor in batch should error")
	}
}

// TestRemoteIngestBatchPartialReject: a frame with one bad reading
// must not fail wholesale — the valid readings are stored exactly
// once, and the client reports the rejects as a *spatialdb.RejectedError
// carrying frame indices (so a resilient sink retries only those).
func TestRemoteIngestBatchPartialReject(t *testing.T) {
	c, svc := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("ubi-p", spec); err != nil {
		t.Fatal(err)
	}
	rs := []model.Reading{
		{SensorID: "ubi-p", MObjectID: "alice",
			Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0},
		{SensorID: "nope", MObjectID: "bob",
			Location: glob.MustParse("CS/Floor3/(340,15)"), Time: t0},
	}
	err := c.IngestBatch(rs)
	var rej *spatialdb.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("batch error = %v, want *spatialdb.RejectedError", err)
	}
	if len(rej.Indices) != 1 || rej.Indices[0] != 1 {
		t.Errorf("rejected indices = %v, want [1]", rej.Indices)
	}
	if got := svc.Health().Ingested; got != 1 {
		t.Errorf("server ingested = %d, want 1 (the valid reading only)", got)
	}
	if _, err := c.Locate("alice"); err != nil {
		t.Errorf("valid reading of a partially rejected frame not stored: %v", err)
	}
}

// TestRemoteIngestIsBatchOfOne: a single reading rides mw.ingestBatch
// as a batch of one, so a rejection comes back exactly as
// core.Service.Ingest reports it locally — a *spatialdb.RejectedError
// with Indices [0] and the same message — and a resilient sink counts
// it as a rejection, not a transport failure. A reading that already
// carries a trace ID keeps it end to end.
func TestRemoteIngestIsBatchOfOne(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(was) })

	c, svc := startStack(t)
	ghost := model.Reading{SensorID: "ghost", MObjectID: "alice",
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0}
	local := svc.Ingest(ghost)
	if local == nil {
		t.Fatal("local ingest from an unregistered sensor succeeded")
	}
	err := c.Ingest(ghost)
	var rej *spatialdb.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("Ingest = %v (%T), want *spatialdb.RejectedError", err, err)
	}
	if len(rej.Indices) != 1 || rej.Indices[0] != 0 {
		t.Errorf("rejected indices = %v, want [0]", rej.Indices)
	}
	if err.Error() != local.Error() {
		t.Errorf("remote rejection %q, local %q", err, local)
	}

	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("ubi-one", spec); err != nil {
		t.Fatal(err)
	}
	notified := make(chan NotificationDTO, 1)
	if _, err := c.Subscribe(SubscribeArgs{Region: "CS/Floor3/NetLab", EveryReading: true},
		func(n NotificationDTO) { notified <- n }); err != nil {
		t.Fatal(err)
	}
	trace := obs.BeginTrace()
	if err := c.Ingest(model.Reading{SensorID: "ubi-one", MObjectID: "bob",
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0, Trace: trace}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notified:
		if n.Trace != trace {
			t.Errorf("notification trace = %q, want the reading's %q", n.Trace, trace)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification")
	}
}
