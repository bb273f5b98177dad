package spatialdb

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// Snapshot is a consistent cut of the reading and sensor tables across
// every stripe, for region scans. It holds every stripe's readMu
// shared, from DB.Snapshot until Close, so every writer waits while it
// is open: a scan collects its candidates, closes the snapshot, and
// only then fuses them. The cut holds
//
//   - each object with stored rows exactly once: a record lives in one
//     stripe for its whole life;
//   - for each object, a prefix of its own inserts;
//   - a batch as a prefix of its stripe groups: a batch stores one
//     stripe's group at a time, in store order, so a cut holds some
//     leading groups whole and none of the rest — a state serial
//     inserts of the same readings could show. A batch whose objects
//     share one stripe is held entirely or not at all.
//
// Cuts take turns: one snapshot is open at a time, and the next waits
// for its Close. A stripe's RWMutex turns new readers away once a
// writer queues, so a store waits for the one open cut's candidate
// collection, however many clients scan. Cuts that overlapped would
// keep some cut on every stripe nearly all the time, and each store
// would wait out several of them.
//
// While a snapshot is open, its goroutine must not open another, write
// to the DB or take a stripe lock (any DB call that reads stored rows).
// The second snapshot would wait for the first's Close; Go's RWMutex
// queues a new RLock behind a waiting writer, so a stripe read would
// wait for a writer that waits for the snapshot. Candidates,
// SensorSpecs, SensorGeneration and Universe stay valid after Close;
// SupportCandidates and MobileObjects must be called before it.
type Snapshot struct {
	universe geom.Rect
	sensors  *sensorTable
	// turn is the DB's cutTurn, held with the stripe locks.
	turn *sync.Mutex
	// stripes are the stripes whose readMu the snapshot holds.
	stripes *[stripeCount]*stripe

	// closed releases the locks and retires the handle from the live
	// gauge exactly once.
	closed atomic.Bool
}

// Close releases a snapshot's stripe locks. Safe on nil and idempotent.
func (s *Snapshot) Close() {
	if s != nil && s.closed.CompareAndSwap(false, true) {
		for _, sh := range s.stripes {
			sh.readMu.RUnlock()
		}
		mSnapPoolLive.Add(-1)
		s.turn.Unlock()
	}
}

// spatialdb_cut_wait_us records the time a Snapshot waited for its
// turn and its stripe locks. It observes only when some lock was not
// free on the first try, so a cut nothing delayed reads no clock.
var mCutWaitUs = obs.Default().Histogram("spatialdb_cut_wait_us")

// Snapshot cuts the database's reading and sensor tables: it waits for
// its turn (the cut open before it to Close), then takes every stripe's
// readMu shared, in index order, and holds them until Close. The cut
// holds every insert that returned before the call. The caller must
// Close the handle, and must not touch the DB's rows from the same
// goroutine before it does (see Snapshot).
func (db *DB) Snapshot() *Snapshot {
	var start time.Time
	if !db.cutTurn.TryLock() {
		start = time.Now()
		db.cutTurn.Lock()
	}
	for _, sh := range db.stripes {
		if sh.readMu.TryRLock() {
			continue
		}
		if start.IsZero() {
			start = time.Now()
		}
		sh.readMu.RLock()
	}
	if !start.IsZero() {
		mCutWaitUs.Observe(float64(time.Since(start).Microseconds()))
	}
	mSnapshots.Inc()
	mSnapPoolLive.Add(1)
	return &Snapshot{
		universe: db.universe,
		sensors:  db.sensorView.Load(),
		turn:     &db.cutTurn,
		stripes:  &db.stripes,
	}
}

// Universe returns the database's universe extent.
func (s *Snapshot) Universe() geom.Rect { return s.universe }

// SensorSpecs returns the sensor metadata table at the cut. The map is
// shared and must not be mutated.
func (s *Snapshot) SensorSpecs() map[string]model.SensorSpec { return s.sensors.specs }

// SensorGeneration returns the sensor-table generation at the cut.
func (s *Snapshot) SensorGeneration() uint64 { return s.sensors.gen }

// MobileObjects returns every object with stored readings at the cut
// as a candidate, sorted by ID: the exhaustive candidate list the
// region-scan tests compare the support pre-filter against.
func (s *Snapshot) MobileObjects() []Candidate {
	var out []Candidate
	for _, sh := range s.stripes {
		for _, o := range sh.table.objs {
			if len(o.rows) > 0 {
				out = append(out, o.candidate())
			}
		}
	}
	slices.SortFunc(out, func(a, b Candidate) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// Candidate is one support-index hit: a mobile object whose indexed
// support rectangle — a conservative superset of the bounding box of
// its live readings at the cut (see readTable.support) — intersects a
// queried region.
//
// A candidate carries the object's row header and epoch at the cut,
// exactly as a StoredReading carries them: the header is shared
// without a copy, and readTable guarantees no slot it covers is ever
// rewritten, so a candidate stays valid after its snapshot is closed,
// for as long as it is held.
type Candidate struct {
	ID    string
	rows  []model.Reading
	epoch uint64
}

// candidate copies the record's row header and epoch: the record
// changes after the cut, the candidate must not.
func (o *objRec) candidate() Candidate { return Candidate{ID: o.id, rows: o.rows, epoch: o.epoch} }

// Epoch returns the candidate's reading epoch at the cut. Epochs are
// strictly monotonic per object, so a cached result stamped with this
// value stays comparable against the live table.
func (c *Candidate) Epoch() uint64 { return c.epoch }

// LatestPerSensor reduces the candidate's rows at the cut to the
// fusion working set at now, as StoredReading.LatestPerSensor does: the
// newest unexpired row per sensor registered in specs, sorted by
// sensor ID. It never prunes.
func (c *Candidate) LatestPerSensor(specs map[string]model.SensorSpec, now time.Time) []model.Reading {
	out, _ := latestRows(c.rows, specs, now)
	return out
}

// SupportCandidates returns, in no particular order, every mobile
// object whose support rectangle intersects region at the cut. This is
// the region-query pre-filter: an object NOT returned is guaranteed to
// have no reading rectangle intersecting region, so support-gated
// aggregate queries (occupancy heatmaps, ObjectsInRegion) can skip it
// without changing their result. Objects returned are candidates only
// — the caller still gates on the live (TTL-filtered) support, and
// sorts them where its merge needs an order. The search runs on the
// per-stripe support R-trees the snapshot holds locked; cost is
// O(log n + hits) per stripe rather than O(all objects). IDs are
// unique: each object's record lives in exactly one stripe.
//
// The support trees carry each hit's record, so a hit costs no lookup,
// and a counting walk sizes the result first: one allocation when
// anything is hit, none otherwise.
func (s *Snapshot) SupportCandidates(region geom.Rect) []Candidate {
	n := 0
	for _, sh := range s.stripes {
		sh.table.support.SearchIntersectFunc(region, func(geom.Rect, *objRec) bool {
			n++
			return true
		})
	}
	if n == 0 {
		return nil
	}
	out := make([]Candidate, 0, n)
	for _, sh := range s.stripes {
		sh.table.support.SearchIntersectFunc(region, func(_ geom.Rect, o *objRec) bool {
			out = append(out, o.candidate())
			return true
		})
	}
	return out
}
