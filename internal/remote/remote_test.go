package remote

import (
	"strings"
	"testing"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

var t0 = time.Date(2026, 7, 5, 12, 0, 0, 0, time.UTC)

// startStack brings up a Location Service behind an mwrpc server and
// returns a connected client.
func startStack(t *testing.T) (*LocationClient, *core.Service) {
	t.Helper()
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
	c, err := DialLocation(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, svc
}

func TestRemoteSensorAndIngestAndLocate(t *testing.T) {
	c, _ := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("ubi-r", spec); err != nil {
		t.Fatal(err)
	}
	err := c.Ingest(model.Reading{
		SensorID:  "ubi-r",
		MObjectID: "alice",
		Location:  glob.MustParse("CS/Floor3/(370,15)"),
		Time:      t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := c.Locate("alice")
	if err != nil {
		t.Fatal(err)
	}
	if loc.Symbolic != "CS/Floor3/NetLab" {
		t.Errorf("symbolic = %s", loc.Symbolic)
	}
	if loc.Prob <= 0.5 {
		t.Errorf("prob = %v", loc.Prob)
	}
	if loc.Rect.MinX < 360 || loc.Rect.MaxX > 380 {
		t.Errorf("rect = %+v", loc.Rect)
	}
	if loc.Band == "" || loc.Time == "" {
		t.Errorf("incomplete DTO: %+v", loc)
	}
	// Remote adapters work through the client as a Sink/Registrar.
	ubi, err := adapter.NewUbisense("ubi-adapter", glob.MustParse("CS/Floor3"), 0.9, c, c, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ubi.ReportFix("bob", geom.Pt(340, 15), t0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Locate("bob"); err != nil {
		t.Errorf("locating via remote adapter: %v", err)
	}
}

func TestRemoteQueries(t *testing.T) {
	c, _ := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("s", spec); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(model.Reading{SensorID: "s", MObjectID: "alice",
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0}); err != nil {
		t.Fatal(err)
	}
	p, band, err := c.ProbInRegion("alice", "CS/Floor3/NetLab")
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.5 || band == "" {
		t.Errorf("prob = %v band = %s", p, band)
	}
	objs, err := c.ObjectsInRegion("CS/Floor3/NetLab", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := objs["alice"]; !ok {
		t.Errorf("objects = %v", objs)
	}
	// Errors propagate with context.
	if _, _, err := c.ProbInRegion("ghost", "CS/Floor3/NetLab"); err == nil ||
		!strings.Contains(err.Error(), "no readings") {
		t.Errorf("err = %v", err)
	}
}

func TestRemoteSubscriptionPush(t *testing.T) {
	c, _ := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("s", spec); err != nil {
		t.Fatal(err)
	}
	got := make(chan NotificationDTO, 4)
	id, err := c.Subscribe(SubscribeArgs{
		Region:  "CS/Floor3/NetLab",
		MinProb: 0.3,
	}, func(n NotificationDTO) { got <- n })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(model.Reading{SensorID: "s", MObjectID: "carol",
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: t0}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n.Object != "carol" || n.SubscriptionID != id || n.Prob < 0.3 {
			t.Errorf("notification = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no push received")
	}
	if err := c.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	// Unsubscribing again fails (no longer owned).
	if err := c.Unsubscribe(id); err == nil {
		t.Error("double unsubscribe should fail")
	}
}

func TestClientDisconnectCleansSubscriptions(t *testing.T) {
	svc, err := core.New(building.PaperFloor(), core.WithClock(func() time.Time { return t0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialLocation(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Subscribe(SubscribeArgs{Region: "CS/Floor3/NetLab"}, func(NotificationDTO) {}); err != nil {
		t.Fatal(err)
	}
	if svc.Subscriptions() != 1 {
		t.Fatalf("subscriptions = %d", svc.Subscriptions())
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for svc.Subscriptions() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription not cleaned up after disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRemoteSpatialRelations(t *testing.T) {
	c, _ := startStack(t)
	rel, pass, err := c.Relate("CS/Floor3/NetLab", "CS/Floor3/MainCorridor")
	if err != nil {
		t.Fatal(err)
	}
	if rel != "EC" || pass != "ECFP" {
		t.Errorf("relate = %s %s", rel, pass)
	}
	rt, err := c.Route("CS/Floor3/NetLab", "CS/Floor3/HCILab", "free")
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Regions) != 3 || rt.Length <= 0 {
		t.Errorf("route = %+v", rt)
	}
	// Locked room requires the restricted policy.
	if _, err := c.Route("CS/Floor3/NetLab", "CS/Floor3/3105", "free"); err == nil {
		t.Error("free route into locked room should fail")
	}
	if _, err := c.Route("CS/Floor3/NetLab", "CS/Floor3/3105", "restricted"); err != nil {
		t.Errorf("restricted route failed: %v", err)
	}
}

func TestRemoteObjectRelations(t *testing.T) {
	c, _ := startStack(t)
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("s", spec); err != nil {
		t.Fatal(err)
	}
	for _, fix := range []struct {
		obj  string
		x, y float64
	}{{"nina", 370, 15}, {"omar", 372, 15}} {
		if err := c.Ingest(model.Reading{SensorID: "s", MObjectID: fix.obj,
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(fix.x, fix.y)),
			Time:     t0}); err != nil {
			t.Fatal(err)
		}
	}
	p, err := c.Proximity("nina", "omar", 5)
	if err != nil {
		t.Fatal(err)
	}
	if p <= 0.3 {
		t.Errorf("proximity = %v", p)
	}
	ok, pj, err := c.CoLocated("nina", "omar", "room")
	if err != nil || !ok || pj <= 0 {
		t.Errorf("coLocated = %v %v %v", ok, pj, err)
	}
}

func TestDTORoundTrips(t *testing.T) {
	// Specs with every tdf kind.
	specs := []model.SensorSpec{
		model.UbisenseSpec(0.9),
		model.RFIDSpec(0.8),
		model.BiometricShortSpec(),
		model.CardReaderSpec(glob.MustParse("CS/Floor3/3105")),
	}
	for _, spec := range specs {
		got, err := toSpecDTO(spec).toSpec()
		if err != nil {
			t.Fatalf("%s: %v", spec.Type, err)
		}
		if got.Type != spec.Type || got.Errors != spec.Errors || got.TTL != spec.TTL {
			t.Errorf("%s spec round trip: %+v vs %+v", spec.Type, got, spec)
		}
		if got.Resolution.Kind != spec.Resolution.Kind {
			t.Errorf("%s resolution kind mismatch", spec.Type)
		}
		// TDF behaviour survives (compare at a probe point).
		p1 := spec.TDFOrDefault().Degrade(0.8, 7*time.Second)
		p2 := got.TDFOrDefault().Degrade(0.8, 7*time.Second)
		if p1 != p2 {
			t.Errorf("%s tdf round trip: %v vs %v", spec.Type, p1, p2)
		}
	}
}

func TestRemoteQueryLanguage(t *testing.T) {
	c, _ := startStack(t)
	// The paper's §5.1 example over the wire.
	objs, err := c.Query(`SELECT objects
		WHERE prop('power-outlets') = 'yes' AND prop('bluetooth') = 'high'
		NEAREST (0, 0) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || objs[0].GLOB != "CS/Floor3/NetLab" {
		t.Fatalf("query = %+v", objs)
	}
	if objs[0].Type != "Room" || objs[0].Properties["bluetooth"] != "high" {
		t.Errorf("object DTO = %+v", objs[0])
	}
	if objs[0].Bounds.MinX != 360 || objs[0].Bounds.MaxX != 380 {
		t.Errorf("bounds = %+v", objs[0].Bounds)
	}
	// Syntax errors propagate.
	if _, err := c.Query(`SELECT people`); err == nil {
		t.Error("bad query should fail")
	}
}

func TestRemoteDistributionHistoryAndRegions(t *testing.T) {
	// A service with history enabled behind the full stack.
	svc, err := core.New(building.PaperFloor(),
		core.WithClock(func() time.Time { return t0 }), core.WithHistory(8))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialLocation(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	if err := c.RegisterSensor("s", spec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Ingest(model.Reading{SensorID: "s", MObjectID: "zed",
			Location: glob.CoordinatePoint(glob.MustParse("CS/Floor3"),
				geom.Pt(370+float64(i), 15)),
			Time: t0.Add(time.Duration(i) * time.Second)}); err != nil {
			t.Fatal(err)
		}
	}
	// Distribution.
	cells, err := c.Distribution("zed")
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("empty distribution")
	}
	var total float64
	for _, cell := range cells {
		total += cell.Prob
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("distribution sums to %v", total)
	}
	// History.
	trail, err := c.History("zed")
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != 3 {
		t.Errorf("trail = %d entries", len(trail))
	}
	// Remote region definition feeds straight into queries.
	if err := c.DefineRegion("CS/Floor3/NetLab/corner",
		[][2]float64{{0, 0}, {8, 0}, {8, 8}, {0, 8}}, nil); err != nil {
		t.Fatal(err)
	}
	p, _, err := c.ProbInRegion("zed", "CS/Floor3/NetLab/corner")
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 {
		t.Errorf("prob in defined region = %v", p)
	}
	// Errors propagate.
	if _, err := c.Distribution("ghost"); err == nil {
		t.Error("unknown object should fail")
	}
	if err := c.DefineRegion("((", nil, nil); err == nil {
		t.Error("bad GLOB should fail")
	}
}
