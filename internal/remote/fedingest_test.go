package remote

import (
	"reflect"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

// TestFedIngestReplayStoresOnce drives the owner side of a forwarded
// batch over the wire. At-least-once forwarding resends a batch whose
// reply was lost; the resend must store nothing and still be acked in
// full, while readings that differ from a stored one in any part of
// their identity — location, time by one nanosecond, sensor — are new
// and stored.
func TestFedIngestReplayStoresOnce(t *testing.T) {
	svc, err := core.New(building.PaperFloor(), core.WithClock(func() time.Time { return t0 }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	for _, s := range []string{"ubi-1", "ubi-2"} {
		if err := svc.RegisterSensor(s, spec); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(svc)
	// The owner side of mw.fedIngest needs no router: register just the
	// handler, as SetFederation does.
	srv.rpc.Register(fed.MethodIngest, mwrpc.JSONHandler(srv.handleFedIngest))
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

	at := func(sensor, object, loc string, when time.Time) model.Reading {
		return model.Reading{SensorID: sensor, MObjectID: object, Location: glob.MustParse(loc), Time: when}
	}
	forward := func(batch []model.Reading) fed.IngestReply {
		t.Helper()
		var rep fed.IngestReply
		if err := c.call(fed.MethodIngest, fed.IngestArgs{Readings: fed.ToWireBatch(batch), From: "peer"}, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	stored := func(object string) []model.Reading {
		rows, _, _ := svc.DB().ExportObject(object)
		return rows
	}

	base := at("ubi-1", "alice", "CS/Floor3/(370,15)", t0)
	batch := []model.Reading{
		base,
		at("ubi-1", "alice", "CS/Floor3/(371,15)", t0.Add(time.Second)),
		at("ubi-2", "bob", "CS/Floor3/(340,15)", t0),
	}
	for send := 1; send <= 2; send++ {
		if rep := forward(batch); rep.Accepted != len(batch) || len(rep.Rejected) != 0 {
			t.Fatalf("send %d: reply %+v, want Accepted %d and nothing rejected", send, rep, len(batch))
		}
	}
	aliceRows, bobRows := stored("alice"), stored("bob")
	if len(aliceRows) != 2 || len(bobRows) != 1 {
		t.Fatalf("after the batch was sent twice: alice %d rows, bob %d, want 2 and 1", len(aliceRows), len(bobRows))
	}

	nearMisses := []model.Reading{
		at("ubi-1", "alice", "CS/Floor3/(372,15)", t0),                      // same sensor and time, another coordinate
		at("ubi-1", "alice", "CS/Floor3/(370,15)", t0.Add(time.Nanosecond)), // same sensor and location, +1 ns
		at("ubi-2", "alice", "CS/Floor3/(370,15)", t0),                      // another sensor
	}
	if rep := forward(append([]model.Reading{base}, nearMisses...)); rep.Accepted != 1+len(nearMisses) || len(rep.Rejected) != 0 {
		t.Fatalf("near-miss batch: reply %+v, want Accepted %d", rep, 1+len(nearMisses))
	}
	got := stored("alice")
	if len(got) != len(aliceRows)+len(nearMisses) {
		t.Fatalf("alice has %d rows after the near misses, want %d: every near miss stored, the replayed row not", len(got), len(aliceRows)+len(nearMisses))
	}
	if !reflect.DeepEqual(got[:len(aliceRows)], aliceRows) {
		t.Errorf("rows stored before the near misses changed")
	}
	for i, want := range nearMisses {
		r := got[len(aliceRows)+i]
		if r.SensorID != want.SensorID || !r.Time.Equal(want.Time) || r.Location.String() != want.Location.String() {
			t.Errorf("near miss %d stored as %s %s %v, want %s %s %v", i,
				r.SensorID, r.Location, r.Time, want.SensorID, want.Location, want.Time)
		}
	}
}
