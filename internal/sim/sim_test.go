package sim

import (
	"errors"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

func synthetic(t *testing.T) *building.Building {
	t.Helper()
	return building.Synthetic("SIM", 2, 3, 20, 15, 8)
}

func TestSimDeterministic(t *testing.T) {
	b := synthetic(t)
	run := func() []PersonState {
		s, err := New(b, Config{People: 4, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			s.Step()
		}
		return s.People()
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("non-deterministic: %+v vs %+v", a[i], bb[i])
		}
	}
}

func TestPeopleStayInUniverse(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		s.Step()
		for _, p := range s.People() {
			if !b.Universe.ContainsPoint(p.Pos) {
				t.Fatalf("step %d: %s escaped to %v", i, p.ID, p.Pos)
			}
			if p.Room == "" {
				t.Fatalf("step %d: %s has no room at %v", i, p.ID, p.Pos)
			}
		}
	}
}

func TestPeopleActuallyMoveAcrossRooms(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 3, Seed: 11, DwellMin: time.Second, DwellMax: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	visited := make(map[string]map[string]bool)
	for _, p := range s.People() {
		visited[p.ID] = map[string]bool{p.Room: true}
	}
	for i := 0; i < 600; i++ {
		s.Step()
		for _, p := range s.People() {
			visited[p.ID][p.Room] = true
		}
	}
	for id, rooms := range visited {
		if len(rooms) < 3 {
			t.Errorf("%s visited only %d regions", id, len(rooms))
		}
	}
}

func TestTruePosition(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TruePosition("person-00"); !ok {
		t.Error("person-00 missing")
	}
	if _, ok := s.TruePosition("ghost"); ok {
		t.Error("ghost should not exist")
	}
}

// sinkCounter counts ingested readings per sensor type.
type sinkCounter struct {
	mu    sync.Mutex
	byTyp map[string]int
}

func (c *sinkCounter) Ingest(r model.Reading) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byTyp == nil {
		c.byTyp = make(map[string]int)
	}
	c.byTyp[r.SensorType]++
	return nil
}

func TestObserversEmitReadings(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 5, Seed: 5, DwellMin: time.Second, DwellMax: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	sink := &sinkCounter{}
	frame := glob.MustParse("SIM/F")
	ubiA, err := adapter.NewUbisense("ubi-1", frame, 0.9, sink, nil, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rfA, err := adapter.NewRFID("rf-1", frame, geom.Pt(30, 10), 15, 0.9, sink, nil, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cardA, err := adapter.NewCardReader("card-1", glob.MustParse("SIM/F/r0c0"), sink, nil, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bioA, err := adapter.NewBiometric("fp-1", frame, geom.Pt(10, 12), glob.MustParse("SIM/F/r0c0"),
		15*time.Minute, 0.3, sink, nil, nil, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}

	observers := []Observer{
		NewUbisenseField(ubiA, b.Universe, 1.0, s.Rand()),
		NewRFIDStation(rfA, geom.Pt(30, 10), 15, 1.0, s.Rand()),
		&CardReaderDoor{Adapter: cardA, Room: "SIM/F/r0c0"},
		NewBiometricDesk(bioA, "SIM/F/r0c0", 1.0, s.Rand()),
	}
	if err := Run(s, 400, observers...); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.byTyp[model.TypeUbisense] == 0 {
		t.Error("no ubisense readings")
	}
	if sink.byTyp[model.TypeRFID] == 0 {
		t.Error("no rfid readings")
	}
	if sink.byTyp[model.TypeCardReader] == 0 {
		t.Error("no card swipes")
	}
	if sink.byTyp[model.TypeBiometricShort] == 0 || sink.byTyp[model.TypeBiometricLong] == 0 {
		t.Error("no biometric readings")
	}
}

func TestCarriageIsStablePerPerson(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := newCarriage(s.Rand(), 0.5)
	first := c.carries("p")
	for i := 0; i < 20; i++ {
		if c.carries("p") != first {
			t.Fatal("carriage flipped")
		}
	}
	// Probability 0 and 1 are exact.
	c0 := newCarriage(s.Rand(), 0)
	if c0.carries("p") {
		t.Error("carry prob 0 should never carry")
	}
	c1 := newCarriage(s.Rand(), 1)
	if !c1.carries("p") {
		t.Error("carry prob 1 should always carry")
	}
}

// TestEndToEndFusionAccuracy wires the simulator through real adapters
// into a live Location Service and checks that the fused estimate
// tracks ground truth — the E1 experiment in miniature.
func TestEndToEndFusionAccuracy(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 3, Seed: 9, DwellMin: 2 * time.Second, DwellMax: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(b, core.WithClock(s.Now))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	frame := glob.MustParse("SIM/F")
	ubiA, err := adapter.NewUbisense("ubi-1", frame, 1.0, svc, svc, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	field := NewUbisenseField(ubiA, b.Universe, 1.0, s.Rand())

	var totalErr float64
	samples := 0
	for i := 0; i < 300; i++ {
		s.Step()
		if err := field.Observe(s.Now(), s.People()); err != nil {
			t.Fatal(err)
		}
		if i%10 != 0 {
			continue
		}
		for _, p := range s.People() {
			loc, err := svc.LocateObject(p.ID)
			if err != nil {
				continue // not observed yet
			}
			totalErr += loc.Rect.Center().Dist(p.Pos)
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no location samples")
	}
	mean := totalErr / float64(samples)
	// Ubisense noise is 0.5 units; walking between observations adds a
	// few more. Anything under 5 units on a 60x46 floor is tracking.
	if mean > 5 {
		t.Errorf("mean localization error = %.2f units over %d samples", mean, samples)
	}
}

// failingObserver errors on every observation after the first k.
type failingObserver struct {
	ok    int
	calls int
}

func (f *failingObserver) Observe(time.Time, []PersonState) error {
	f.calls++
	if f.calls > f.ok {
		return errTestSink
	}
	return nil
}

var errTestSink = errors.New("sim test: sink down")

// TestRunAbortsOnObserverError: Run stops at the first failed
// observation.
func TestRunAbortsOnObserverError(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bad := &failingObserver{ok: 3}
	if err := Run(s, 10, bad); err == nil {
		t.Error("Run should abort on observer error")
	}
	if bad.calls != 4 {
		t.Errorf("Run called the observer %d times, want 4 (stop at the first failure)", bad.calls)
	}
}
