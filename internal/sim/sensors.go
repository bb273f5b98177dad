package sim

import (
	"math/rand"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/geom"
)

// Observer is a simulated sensor installation: on each simulation
// step it looks at the ground truth and may emit readings through its
// adapter.
type Observer interface {
	// Observe inspects the ground truth and reports readings for time
	// now. Errors from the underlying sink abort the step.
	Observe(now time.Time, people []PersonState) error
}

// carriage draws, once per person, whether they carry a technology's
// device — the x parameter of §4.1.1.
type carriage struct {
	rng   *rand.Rand
	prob  float64
	carry map[string]bool
}

func newCarriage(rng *rand.Rand, prob float64) *carriage {
	return &carriage{rng: rng, prob: prob, carry: make(map[string]bool)}
}

func (c *carriage) carries(id string) bool {
	if v, ok := c.carry[id]; ok {
		return v
	}
	v := c.rng.Float64() < c.prob
	c.carry[id] = v
	return v
}

// UbisenseField simulates Ubisense coverage over an area: each carried
// tag is detected with probability y at its true position plus bounded
// noise; with probability z the system misreports a uniformly random
// position in the coverage area (a misidentified tag).
type UbisenseField struct {
	// Adapter forwards fixes into MiddleWhere.
	Adapter *adapter.Ubisense
	// Coverage is the sensed area in universe coordinates.
	Coverage geom.Rect
	// Y and Z are the §4.1.1 detection and misreport probabilities.
	Y, Z float64
	// Noise is the maximum absolute positional error per axis.
	Noise float64

	rng     *rand.Rand
	carried *carriage
}

// NewUbisenseField builds a Ubisense coverage field. carryProb is x.
func NewUbisenseField(a *adapter.Ubisense, coverage geom.Rect, carryProb float64, rng *rand.Rand) *UbisenseField {
	return &UbisenseField{
		Adapter:  a,
		Coverage: coverage,
		Y:        0.95,
		Z:        0.05,
		Noise:    0.5,
		rng:      rng,
		carried:  newCarriage(rng, carryProb),
	}
}

// Observe implements Observer.
func (f *UbisenseField) Observe(now time.Time, people []PersonState) error {
	for _, p := range people {
		if !f.Coverage.ContainsPoint(p.Pos) {
			continue
		}
		if !f.carried.carries(p.ID) {
			continue
		}
		switch {
		case f.rng.Float64() < f.Y:
			jitter := geom.Pt(
				(f.rng.Float64()*2-1)*f.Noise,
				(f.rng.Float64()*2-1)*f.Noise,
			)
			if err := f.Adapter.ReportFix(p.ID, p.Pos.Add(jitter), now); err != nil {
				return err
			}
		case f.rng.Float64() < f.Z:
			// Misidentification: the system reports this tag somewhere
			// it is not.
			wrong := geom.Pt(
				f.Coverage.Min.X+f.rng.Float64()*f.Coverage.Width(),
				f.Coverage.Min.Y+f.rng.Float64()*f.Coverage.Height(),
			)
			if err := f.Adapter.ReportFix(p.ID, wrong, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// RFIDStation simulates one RF badge base station: carried badges
// within range are detected with probability y.
type RFIDStation struct {
	// Adapter forwards sightings.
	Adapter *adapter.RFID
	// Pos is the station position in universe coordinates.
	Pos geom.Point
	// Range is the detection radius.
	Range float64
	// Y is the in-range detection probability (the paper uses 0.75).
	Y float64

	rng     *rand.Rand
	carried *carriage
}

// NewRFIDStation builds a base-station model. carryProb is x.
func NewRFIDStation(a *adapter.RFID, pos geom.Point, rangeFt, carryProb float64, rng *rand.Rand) *RFIDStation {
	return &RFIDStation{
		Adapter: a,
		Pos:     pos,
		Range:   rangeFt,
		Y:       0.75,
		rng:     rng,
		carried: newCarriage(rng, carryProb),
	}
}

// Observe implements Observer.
func (st *RFIDStation) Observe(now time.Time, people []PersonState) error {
	for _, p := range people {
		if !st.carried.carries(p.ID) {
			continue
		}
		if p.Pos.Dist(st.Pos) > st.Range {
			continue
		}
		if st.rng.Float64() < st.Y {
			if err := st.Adapter.ReportBadge(p.ID, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// CardReaderDoor simulates a badge reader on a room door: whenever a
// person enters the watched room, they swipe.
type CardReaderDoor struct {
	// Adapter forwards swipes.
	Adapter *adapter.CardReader
	// Room is the GLOB string of the watched room.
	Room string
}

// Observe implements Observer.
func (c *CardReaderDoor) Observe(now time.Time, people []PersonState) error {
	for _, p := range people {
		if p.EnteredRoom && p.Room == c.Room {
			if err := c.Adapter.Swipe(p.ID, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// BiometricDesk simulates a fingerprint login station in a room:
// a person entering the room logs in with the given probability.
type BiometricDesk struct {
	// Adapter forwards logins.
	Adapter *adapter.Biometric
	// Room is the GLOB string of the room with the device.
	Room string
	// LoginProb is the chance an entering person authenticates.
	LoginProb float64

	rng *rand.Rand
}

// NewBiometricDesk builds a login-station model.
func NewBiometricDesk(a *adapter.Biometric, room string, loginProb float64, rng *rand.Rand) *BiometricDesk {
	return &BiometricDesk{Adapter: a, Room: room, LoginProb: loginProb, rng: rng}
}

// Observe implements Observer.
func (b *BiometricDesk) Observe(now time.Time, people []PersonState) error {
	for _, p := range people {
		if p.EnteredRoom && p.Room == b.Room && b.rng.Float64() < b.LoginProb {
			if err := b.Adapter.Login(p.ID, now); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run advances the simulation n steps, invoking every observer after
// each step. It returns on the first observer error.
func Run(s *Sim, n int, observers ...Observer) error {
	for i := 0; i < n; i++ {
		s.Step()
		snapshot := s.People()
		for _, o := range observers {
			if err := o.Observe(s.Now(), snapshot); err != nil {
				return err
			}
		}
	}
	return nil
}

// GPSSatellites simulates GPS coverage over an outdoor area: carried
// receivers inside the coverage get a fix with probability y, with
// noise matched to the reported accuracy. Indoors (outside coverage)
// GPS is blind, as §1 notes.
type GPSSatellites struct {
	// Adapter forwards fixes.
	Adapter *adapter.GPS
	// Coverage is the outdoor area with sky view.
	Coverage geom.Rect
	// Ref anchors frame coordinates to latitude/longitude (the inverse
	// of the adapter's conversion).
	Ref adapter.GeoReference
	// Y is the fix probability per step; Accuracy the reported radius.
	Y, Accuracy float64

	rng     *rand.Rand
	carried *carriage
}

// NewGPSSatellites builds a GPS coverage model. carryProb is x.
func NewGPSSatellites(a *adapter.GPS, coverage geom.Rect, ref adapter.GeoReference, carryProb float64, rng *rand.Rand) *GPSSatellites {
	return &GPSSatellites{
		Adapter:  a,
		Coverage: coverage,
		Ref:      ref,
		Y:        0.95,
		Accuracy: 15,
		rng:      rng,
		carried:  newCarriage(rng, carryProb),
	}
}

// Observe implements Observer.
func (g *GPSSatellites) Observe(now time.Time, people []PersonState) error {
	for _, p := range people {
		if !g.Coverage.ContainsPoint(p.Pos) || !g.carried.carries(p.ID) {
			continue
		}
		if g.rng.Float64() >= g.Y {
			continue
		}
		noisy := geom.Pt(
			p.Pos.X+(g.rng.Float64()*2-1)*g.Accuracy/3,
			p.Pos.Y+(g.rng.Float64()*2-1)*g.Accuracy/3,
		)
		lat := g.Ref.Lat0 + (noisy.Y-g.Ref.Origin.Y)/g.Ref.UnitsPerDegLat
		lon := g.Ref.Lon0 + (noisy.X-g.Ref.Origin.X)/g.Ref.UnitsPerDegLon
		if err := g.Adapter.ReportFix(p.ID, lat, lon, g.Accuracy, now); err != nil {
			return err
		}
	}
	return nil
}
