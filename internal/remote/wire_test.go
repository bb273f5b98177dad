package remote

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/spatialdb"
)

// TestWireMatrixInterop runs the full hot-path surface over one client
// connection — batched ingest with per-reading rejection, region
// queries, notification pushes, and streaming ingest. Binary framing on
// both ends is the only pairing there is, so the matrix has one case;
// it keeps its subtest name so the case stays comparable across runs.
func TestWireMatrixInterop(t *testing.T) {
	t.Run("binary/binary", testHotPathSurface)
}

func testHotPathSurface(t *testing.T) {
	c, svc := startStack(t)

	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("wire-s", spec); err != nil {
		t.Fatal(err)
	}

	// Notifications must arrive as pushes on the same connection.
	var mu sync.Mutex
	notified := map[string]int{}
	if _, err := c.Subscribe(SubscribeArgs{Region: "CS/Floor3/NetLab", MinProb: 0.3},
		func(n NotificationDTO) {
			mu.Lock()
			notified[n.Object]++
			mu.Unlock()
		}); err != nil {
		t.Fatal(err)
	}

	// Batched ingest with one bad reading: the rest of the batch
	// stores, the rejection surfaces positionally.
	batch := []model.Reading{
		{SensorID: "wire-s", MObjectID: "alice",
			Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0},
		{SensorID: "ghost", MObjectID: "bob",
			Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0},
		{SensorID: "wire-s", MObjectID: "carol",
			Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0},
	}
	err := c.IngestBatch(batch)
	var rej *spatialdb.RejectedError
	if !errors.As(err, &rej) {
		t.Fatalf("IngestBatch = %v, want RejectedError", err)
	}
	if len(rej.Indices) != 1 || rej.Indices[0] != 1 {
		t.Fatalf("rejected indices = %v, want [1]", rej.Indices)
	}

	// Region queries see the stored readings.
	prob, band, err := c.ProbInRegion("alice", "CS/Floor3/NetLab")
	if err != nil {
		t.Fatal(err)
	}
	if prob <= 0.5 || band == "" {
		t.Errorf("ProbInRegion = %v %q", prob, band)
	}
	objs, err := c.ObjectsInRegion("CS/Floor3/NetLab", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := objs["alice"]; !ok {
		t.Errorf("ObjectsInRegion missing alice: %v", objs)
	}
	if _, ok := objs["carol"]; !ok {
		t.Errorf("ObjectsInRegion missing carol: %v", objs)
	}

	// Streaming ingest on the same connection.
	st, err := c.OpenIngestStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const streamed = 6
	for i := 0; i < streamed; i++ {
		err := st.Send([]model.Reading{{
			SensorID: "wire-s", MObjectID: fmt.Sprintf("walker-%d", i),
			Location: glob.MustParse("CS/Floor3/(370,15)"),
			Time:     t0.Add(time.Duration(i) * time.Second),
		}})
		if err != nil {
			t.Fatalf("stream send %d: %v", i, err)
		}
	}
	if err := st.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Accepted != streamed || stats.Unacked != 0 {
		t.Errorf("stream stats = %+v, want %d accepted, 0 unacked", stats, streamed)
	}

	// The pushes provoked above must land.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		got := notified["alice"] > 0 && notified["walker-0"] > 0
		mu.Unlock()
		if got {
			break
		}
		if time.Now().After(deadline) {
			mu.Lock()
			snap := fmt.Sprintf("%v", notified)
			mu.Unlock()
			t.Fatalf("notifications never arrived: %s", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if got := svc.Health().Ingested; got != uint64(2+streamed) {
		t.Errorf("service ingested %d readings, want %d", got, 2+streamed)
	}
}

// TestLocateBinaryMatchesJSON: the binary Locate answer decodes into
// exactly the LocationDTO the in-process reference builds
// (toLocationDTO, the form mw.history returns) — for a fused estimate
// with both supporting and discarded readings and for an estimate off
// every room and floor (empty Symbolic) — and an unknown object gets
// the service's error text.
func TestLocateBinaryMatchesJSON(t *testing.T) {
	bld := building.PaperFloor()
	bld.Universe = geom.R(0, 0, 500, 200) // room for an estimate off the floor
	svc, err := core.New(bld, core.WithClock(func() time.Time { return t0 }))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	srv := NewServer(svc)
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

	ubi := model.UbisenseSpec(0.9)
	ubi.TTL = time.Minute
	for id, spec := range map[string]model.SensorSpec{"ubi": ubi, "rf": model.RFIDSpec(0.8)} {
		if err := svc.RegisterSensor(id, spec); err != nil {
			t.Fatal(err)
		}
	}
	// carol's badge sits in 3105 while her Ubisense tag walks the
	// corridor: conflict resolution keeps the tag and discards the
	// badge. far is fixed outside the floor.
	for _, r := range []model.Reading{
		{SensorID: "rf", MObjectID: "carol", Location: glob.MustParse("CS/Floor3/(340,15)"), Time: t0},
		{SensorID: "ubi", MObjectID: "carol", Location: glob.MustParse("CS/Floor3/(100,35)"), Time: t0},
		{SensorID: "ubi", MObjectID: "carol", Location: glob.MustParse("CS/Floor3/(110,35)"), Time: t0.Add(time.Second)},
		{SensorID: "ubi", MObjectID: "far", Location: glob.MustParse("CS/(250,150)"), Time: t0},
	} {
		if err := svc.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	for _, object := range []string{"carol", "far"} {
		got, err := c.Locate(object)
		if err != nil {
			t.Fatalf("Locate(%s): %v", object, err)
		}
		loc, err := svc.LocateObject(object)
		if err != nil {
			t.Fatal(err)
		}
		if want := toLocationDTO(loc); !reflect.DeepEqual(got, want) {
			t.Fatalf("Locate(%s) differs:\nbinary    %+v\nreference %+v", object, got, want)
		}
		switch object {
		case "carol":
			if len(got.Support) == 0 || len(got.Discarded) == 0 || got.Symbolic != "CS/Floor3/MainCorridor" {
				t.Fatalf("carol: want support, discards and the corridor, got %+v", got)
			}
		case "far":
			if got.Symbolic != "" || got.Coordinate == "" {
				t.Fatalf("far: want no symbolic region and a coordinate, got %+v", got)
			}
		}
	}
	_, err = c.Locate("nobody")
	_, want := svc.LocateObject("nobody")
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("Locate(nobody): remote err %v, in-process err %v", err, want)
	}
}
