package main

import (
	"fmt"
	"math/rand"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/sim"
)

// Geometry of one floor of the city tower (feet): rows x cols rooms of
// roomW x roomH with a corridor of corridorH above each row.
const (
	cityName  = "C"
	roomW     = 12.0
	roomH     = 10.0
	corridorH = 5.0
	rowH      = roomH + corridorH

	ubiRadius = 0.5  // Ubisense fix radius
	rfRadius  = 15.0 // RFID station range
	carryProb = 0.95 // chance a person's tag reports in a step
	rfEvery   = 5    // one RFID sighting per person every rfEvery steps
	batchSize = 64
)

// citySize sizes the city and its pre-generated load.
type citySize struct {
	floors, rows, cols int
	people, steps      int
}

var (
	// fullCity is the benchmark's city: 16 floor shards, 384 rooms, 640
	// people, ~735 readings per step.
	fullCity = citySize{floors: 16, rows: 4, cols: 6, people: 640, steps: 400}
	// smokeCity is the 2-floor city of the smoke test.
	smokeCity = citySize{floors: 2, rows: 4, cols: 6, people: 32, steps: 60}
)

// readingMeta is what the generator remembers about a reading of the
// sequence so it can check the program's answers against its own
// knowledge: who, on which floor, where (universe frame), which
// technology.
type readingMeta struct {
	person int32
	floor  int16
	ubi    bool
	pos    geom.Point
}

// city is the generated input: the building, the people, and the flat
// reading sequence every workload replays. Nothing in it depends on
// anything but the size and the seed.
type city struct {
	size   citySize
	bld    *building.Building
	floorH float64
	floors []string // floor GLOB strings, "C/F0"...
	rooms  []string // room GLOB strings
	people []string // person IDs, in sequence order

	seq     []model.Reading // Time is zero; senders stamp it
	meta    []readingMeta   // parallel to seq
	stepEnd []int           // seq index one past each step's last reading
}

func ubiSensor(floor int) string { return fmt.Sprintf("ubi-f%02d", floor) }
func rfSensor(floor int) string  { return fmt.Sprintf("rf-f%02d", floor) }

// newCity builds the tower, walks the simulated people through it for
// size.steps steps and records one Ubisense fix per person per step
// (dropped with probability 1-carryProb) plus one RFID sighting per
// person every rfEvery steps, in each floor's own frame.
func newCity(size citySize, seed int64) (*city, error) {
	c := &city{
		size:   size,
		bld:    building.MultiStorey(cityName, size.floors, size.rows, size.cols, roomW, roomH, corridorH),
		floorH: float64(size.rows) * rowH,
	}
	c.rooms = c.bld.Rooms()
	floorPath := make([][]string, size.floors)
	ubiID := make([]string, size.floors)
	rfID := make([]string, size.floors)
	for k := 0; k < size.floors; k++ {
		g := glob.Symbolic(cityName, fmt.Sprintf("F%d", k))
		c.floors = append(c.floors, g.String())
		floorPath[k] = g.Path
		ubiID[k], rfID[k] = ubiSensor(k), rfSensor(k)
	}

	s, err := sim.New(c.bld, sim.Config{People: size.people, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("city: %w", err)
	}
	for _, p := range s.People() {
		c.people = append(c.people, p.ID)
	}
	// The carry coin has its own stream so the sequence does not depend
	// on how many random numbers the simulator happens to draw.
	carry := rand.New(rand.NewSource(seed + 1))

	perStep := size.people + size.people/rfEvery + 1
	c.seq = make([]model.Reading, 0, size.steps*perStep)
	c.meta = make([]readingMeta, 0, size.steps*perStep)
	// One backing array for every coordinate tuple and shared path
	// slices keep the sequence to a few large allocations, so the
	// generator's heap costs the collector little while the program
	// under test runs in the same process.
	coords := make([]glob.Coord, 0, size.steps*perStep)
	add := func(sensor, typ string, radius float64, person, floor int, local, pos geom.Point, ubi bool) {
		coords = append(coords, glob.Coord{X: local.X, Y: local.Y})
		n := len(coords)
		c.seq = append(c.seq, model.Reading{
			SensorID:        sensor,
			SensorType:      typ,
			MObjectID:       c.people[person],
			Location:        glob.GLOB{Path: floorPath[floor], Coords: coords[n-1 : n : n]},
			DetectionRadius: radius,
		})
		c.meta = append(c.meta, readingMeta{person: int32(person), floor: int16(floor), ubi: ubi, pos: pos})
	}
	for step := 0; step < size.steps; step++ {
		s.Step()
		for i, p := range s.People() {
			k := int(p.Pos.Y / c.floorH)
			if k < 0 {
				k = 0
			}
			if k >= size.floors {
				k = size.floors - 1
			}
			local := geom.Pt(p.Pos.X, p.Pos.Y-float64(k)*c.floorH)
			if carry.Float64() < carryProb {
				add(ubiID[k], model.TypeUbisense, ubiRadius, i, k, local, p.Pos, true)
			}
			if (step+i)%rfEvery == 0 {
				// The station sits at the centre of the room of the grid
				// cell the person stands in (room plus its corridor strip).
				col := clampInt(int(local.X/roomW), 0, size.cols-1)
				row := clampInt(int(local.Y/rowH), 0, size.rows-1)
				station := geom.Pt(float64(col)*roomW+roomW/2, float64(row)*rowH+roomH/2)
				add(rfID[k], model.TypeRFID, rfRadius, i, k, station,
					geom.Pt(station.X, station.Y+float64(k)*c.floorH), false)
			}
		}
		c.stepEnd = append(c.stepEnd, len(c.seq))
	}
	return c, nil
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// batches is the number of batchSize-reading batches in one pass over
// the sequence (the last one may be short).
func (c *city) batches() int { return (len(c.seq) + batchSize - 1) / batchSize }

// fillBatches is how many batches replay the first fillSteps steps (all
// of a shorter sequence): after them every person's 64-row reading
// ring is full and later inserts cost what they cost in steady state.
func (c *city) fillBatches() int {
	steps := fillSteps
	if steps > len(c.stepEnd) {
		steps = len(c.stepEnd)
	}
	return c.stepEnd[steps-1] / batchSize
}

// batch returns the i-th batch of the cyclic replay, and the sequence
// index of its first reading.
func (c *city) batch(i int) ([]model.Reading, int) {
	lo := (i % c.batches()) * batchSize
	hi := lo + batchSize
	if hi > len(c.seq) {
		hi = len(c.seq)
	}
	return c.seq[lo:hi], lo
}

// sensorSpecs lists every sensor the sequence uses with its
// calibration, in registration order.
func (c *city) sensorSpecs() (ids []string, specs []model.SensorSpec) {
	for k := 0; k < c.size.floors; k++ {
		ids = append(ids, ubiSensor(k), rfSensor(k))
		specs = append(specs, model.UbisenseSpec(carryProb), model.RFIDSpec(carryProb))
	}
	return ids, specs
}

// probeReading is a Ubisense fix of a probe object at time at. Every
// probe stands in the middle of room r0c0 of floor 0.
func (c *city) probeReading(object string, at time.Time) model.Reading {
	return model.Reading{
		SensorID:        ubiSensor(0),
		SensorType:      model.TypeUbisense,
		MObjectID:       object,
		Location:        glob.CoordinatePoint(glob.Symbolic(cityName, "F0"), geom.Pt(roomW/2, roomH/2)),
		DetectionRadius: ubiRadius,
		Time:            at,
	}
}

// truth is the generator's own record of what it sent, kept by the one
// goroutine that sends the sequence and read only after it stops. The
// verification pass derives the expected answers from it.
type truth struct {
	c *city
	// last holds, per person and sensor, the newest reading sent:
	// last[(person*floors+floor)*2+tech], tech 0 for the floor's
	// Ubisense cell and 1 for its RFID stations. The program fuses
	// exactly these — the latest reading of each sensor that is still
	// inside the sensor's TTL.
	last []sentReading
	// lastUbi is the sequence index of the person's newest Ubisense fix
	// on any floor, lastAny that of their newest reading of either
	// technology; -1 before the first.
	lastUbi, lastAny []int32
}

// sentReading is a sequence index and when it was sent; the zero value
// means nothing was sent.
type sentReading struct {
	idx int32
	at  time.Time
}

func newTruth(c *city) *truth {
	t := &truth{
		c:       c,
		last:    make([]sentReading, len(c.people)*c.size.floors*2),
		lastUbi: make([]int32, len(c.people)),
		lastAny: make([]int32, len(c.people)),
	}
	for i := range t.lastUbi {
		t.lastUbi[i], t.lastAny[i] = -1, -1
	}
	return t
}

// sent records that sequence readings [lo, lo+n) went out at time at.
func (t *truth) sent(lo, n int, at time.Time) {
	floors := t.c.size.floors
	for i := lo; i < lo+n; i++ {
		m := t.c.meta[i]
		slot := (int(m.person)*floors + int(m.floor)) * 2
		if m.ubi {
			t.lastUbi[m.person] = int32(i)
		} else {
			slot++
		}
		t.last[slot] = sentReading{idx: int32(i), at: at}
		t.lastAny[m.person] = int32(i)
	}
}

// ttlMargin separates "certainly live" from "certainly expired" around
// a TTL: the program evaluates expiry on its own clock, a little after
// the generator asked, and may serve a fused location cached up to a
// quarter second earlier.
const ttlMargin = 300 * time.Millisecond

var (
	ubiTTL = model.UbisenseSpec(carryProb).TTL
	rfTTL  = model.RFIDSpec(carryProb).TTL
)

// liveReading is one reading the program may still be fusing at some
// instant: its rectangle in the universe frame, its technology, and
// whether it is certainly (not just possibly) inside its TTL.
type liveReading struct {
	rect    geom.Rect
	ubi     bool
	certain bool
}

// live lists the readings of a person that the program may have fused
// in an answer it worked out between asked and answered: possibly live
// if inside the TTL when the question was asked, certainly live if
// still inside it when the answer came back.
func (t *truth) live(person int, asked, answered time.Time) []liveReading {
	var out []liveReading
	floors := t.c.size.floors
	for f := 0; f < floors; f++ {
		for tech := 0; tech < 2; tech++ {
			rec := t.last[(person*floors+f)*2+tech]
			if rec.at.IsZero() {
				continue
			}
			ttl, radius := ubiTTL, ubiRadius
			if tech == 1 {
				ttl, radius = rfTTL, rfRadius
			}
			if asked.Sub(rec.at) > ttl+ttlMargin {
				continue
			}
			pos := t.c.meta[rec.idx].pos
			out = append(out, liveReading{
				rect:    geom.Rect{Min: pos, Max: pos}.Expand(radius),
				ubi:     tech == 0,
				certain: answered.Sub(rec.at) < ttl-ttlMargin,
			})
		}
	}
	return out
}

// undisputedFix returns the person's newest Ubisense fix when it is
// certainly live and every other live reading's rectangle intersects
// its own, so that fusion has no conflict to resolve and must answer
// with it.
func (t *truth) undisputedFix(person int, live []liveReading) (geom.Point, bool) {
	last := t.lastUbi[person]
	if last < 0 {
		return geom.Point{}, false
	}
	fix := t.c.meta[last].pos
	rect := geom.Rect{Min: fix, Max: fix}.Expand(ubiRadius)
	certain := false
	for _, lr := range live {
		if !lr.rect.Intersects(rect) {
			return geom.Point{}, false
		}
		certain = certain || (lr.ubi && lr.certain && lr.rect.Eq(rect))
	}
	return fix, certain
}

// resident lists the people whose rows are on the entry daemon now
// that the stream has stopped: everyone on a single daemon; on a
// federated stack those whose newest reading was for one of the entry
// daemon's floors (the lower half), since a person's rows follow their
// readings to the daemon owning the floor.
func (t *truth) resident(federated bool) []int {
	entryFloors := t.c.size.floors
	if federated {
		entryFloors /= 2
	}
	var out []int
	for i, last := range t.lastAny {
		if last >= 0 && int(t.c.meta[last].floor) < entryFloors {
			out = append(out, i)
		}
	}
	return out
}
