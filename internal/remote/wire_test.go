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
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/spatialdb"
)

// TestWireMatrixInterop runs the full hot-path surface — batched
// ingest with per-reading rejection, region queries, notification
// pushes, and streaming ingest — under every MW_WIRE pairing the CI
// compat matrix ships, asserting identical observable behaviour and
// the expected negotiated codec. Binary framing only engages when both
// sides offer it; every other pairing falls back to JSON.
func TestWireMatrixInterop(t *testing.T) {
	cases := []struct {
		wire string
		want mwrpc.Codec
	}{
		{"binary/binary", mwrpc.CodecBinary},
		{"binary/json", mwrpc.CodecJSON},
		{"json/binary", mwrpc.CodecJSON},
		{"json/json", mwrpc.CodecJSON},
	}
	for _, tc := range cases {
		t.Run(tc.wire, func(t *testing.T) {
			t.Setenv(mwrpc.WireEnv, tc.wire)
			c, svc := startStack(t)
			if got := c.WireCodec(); got != tc.want {
				t.Fatalf("negotiated codec = %v, want %v", got, tc.want)
			}

			spec := model.UbisenseSpec(0.95)
			spec.TTL = time.Minute
			if err := c.RegisterSensor("wire-s", spec); err != nil {
				t.Fatal(err)
			}

			// Notifications must arrive over either framing.
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

			// Region queries agree across codecs.
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

			// Streaming ingest works on every pairing (JSON envelopes
			// carry the stream frames when binary is off).
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
		})
	}
}

// TestWireBinaryDefault: with no MW_WIRE knob at all, a fresh stack
// negotiates the binary codec.
func TestWireBinaryDefault(t *testing.T) {
	t.Setenv(mwrpc.WireEnv, "")
	c, _ := startStack(t)
	if got := c.WireCodec(); got != mwrpc.CodecBinary {
		t.Fatalf("default codec = %v, want binary", got)
	}
}

// TestWireBinaryStrictFailsOnDecline: "binary!" demands the codec and
// the dial fails against a JSON-only daemon instead of degrading.
func TestWireBinaryStrictFailsOnDecline(t *testing.T) {
	t.Setenv(mwrpc.WireEnv, "json") // daemon declines binary
	svc, err := core.New(building.PaperFloor(), core.WithClock(func() time.Time { return t0 }))
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
	c, err := DialLocationOptions(addr, DialOptions{Wire: mwrpc.WireBinary, DialAttempts: 1})
	if err == nil {
		c.Close()
		t.Fatal("strict-binary dial against a JSON-only daemon succeeded")
	}
}

// TestLocateBinaryMatchesJSON: one daemon answers a binary client and
// a JSON client with the identical LocationDTO, for a fused estimate
// with both supporting and discarded readings, for an estimate off
// every room and floor (empty Symbolic), and for an unknown object
// (identical error text).
func TestLocateBinaryMatchesJSON(t *testing.T) {
	// The daemon offers binary whatever pairing the compat run sets.
	t.Setenv(mwrpc.WireEnv, "binary/binary")
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
	clients := map[mwrpc.Codec]*LocationClient{}
	for _, wire := range []mwrpc.WirePref{mwrpc.WireBinary, mwrpc.WireJSON} {
		c, err := DialLocationOptions(addr, DialOptions{Wire: wire})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients[c.WireCodec()] = c
	}
	bin, js := clients[mwrpc.CodecBinary], clients[mwrpc.CodecJSON]
	if bin == nil || js == nil {
		t.Fatalf("want one binary and one JSON client, got %v", clients)
	}

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

	for _, object := range []string{"carol", "far", "nobody"} {
		b, berr := bin.Locate(object)
		j, jerr := js.Locate(object)
		if object == "nobody" {
			if berr == nil || jerr == nil || berr.Error() != jerr.Error() {
				t.Fatalf("Locate(nobody): binary err %v, JSON err %v", berr, jerr)
			}
			continue
		}
		if berr != nil || jerr != nil {
			t.Fatalf("Locate(%s): binary err %v, JSON err %v", object, berr, jerr)
		}
		if !reflect.DeepEqual(b, j) {
			t.Fatalf("Locate(%s) differs:\nbinary %+v\nJSON   %+v", object, b, j)
		}
		switch object {
		case "carol":
			if len(b.Support) == 0 || len(b.Discarded) == 0 || b.Symbolic != "CS/Floor3/MainCorridor" {
				t.Fatalf("carol: want support, discards and the corridor, got %+v", b)
			}
		case "far":
			if b.Symbolic != "" || b.Coordinate == "" {
				t.Fatalf("far: want no symbolic region and a coordinate, got %+v", b)
			}
		}
	}
}
