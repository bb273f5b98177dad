package spatialdb

import (
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// Snapshot is an immutable, consistent cut of the reading and sensor
// tables across every shard. Reads on a Snapshot take no locks and see
// a frozen state: concurrent inserts, expiries, and floor migrations
// never show through. A snapshot never observes part of an
// InsertReadings batch: the capture runs with DB.cutMu held
// exclusively, when no batch is in flight on any shard, so each batch
// is either entirely visible or entirely absent.
//
// Every Snapshot call is one fresh capture. Callers must release each
// handle with Close when done; the spatialdb_snapshot_pool_live gauge
// counts open handles.
type Snapshot struct {
	universe geom.Rect
	at       time.Time
	sensors  *sensorTable
	// shards holds each shard's frozen reading table, sorted by shard
	// key.
	shards []*readTable

	// closed retires the handle from the live gauge exactly once. The
	// data is GC-managed and stays valid for any holder regardless.
	closed atomic.Bool
}

// Close releases a snapshot handle obtained from DB.Snapshot. Safe on
// nil and idempotent. The snapshot's data remains readable after Close
// (it is immutable); Close only retires the handle from the live-handle
// accounting.
func (s *Snapshot) Close() {
	if s != nil && s.closed.CompareAndSwap(false, true) {
		mSnapPoolLive.Add(-1)
	}
}

// spatialdb_cut_wait_us records the time a bracket waited for a cut.
// It observes only when the shared lock was not free on the first try,
// so a run with no Snapshot call leaves it empty.
var mCutWaitUs = obs.Default().Histogram("spatialdb_cut_wait_us")

// beginBatch opens a top-level reading-table mutation bracket: cutMu
// held shared until endBatch. The uncontended path is one TryRLock and
// reads no clock.
func (db *DB) beginBatch() {
	if db.cutMu.TryRLock() {
		return
	}
	start := time.Now()
	db.cutMu.RLock()
	mCutWaitUs.Observe(float64(time.Since(start).Microseconds()))
}

// endBatch closes a bracket.
func (db *DB) endBatch() { db.cutMu.RUnlock() }

// Snapshot captures a consistent cut of the database's reading and
// sensor tables. The returned view is immutable and safe for
// concurrent use; it holds every batch that completed before the call,
// and all of a batch or none of it. The caller must Close the handle
// when done.
//
// Snapshot holds cutMu exclusively for the O(shards) capture, so it
// waits for the brackets in flight and a bracket that arrives meanwhile
// waits for it. The capture reads every shard's table pointer and
// freezes the table, so that the shard's next writer clones first
// (mutableTable); a shard nobody wrote since the previous cut is still
// frozen, so capturing it again costs no clone. Never call it from
// inside a bracket (see DB.cutMu).
func (db *DB) Snapshot() *Snapshot {
	db.cutMu.Lock()
	shards := db.allShards()
	tables := make([]*readTable, len(shards))
	for i, sh := range shards {
		sh.readFrozen.Store(true)
		tables[i] = sh.table.Load()
	}
	snap := &Snapshot{
		universe: db.universe,
		at:       time.Now(),
		sensors:  db.sensorView.Load(),
		shards:   tables,
	}
	db.cutMu.Unlock()
	mSnapshots.Inc()
	db.lastSnap.Store(snap.at.UnixMicro())
	mSnapAgeUs.Set(0)
	mSnapPoolLive.Add(1)
	return snap
}

// At returns the time the snapshot was captured.
func (s *Snapshot) At() time.Time { return s.at }

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
	for _, t := range s.shards {
		for id := range t.rows {
			out = append(out, Candidate{ID: id, table: t})
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
// A candidate remembers the frozen table that indexed it. An object's
// rows live in exactly one shard at any cut (floor migration moves
// them atomically), so that table is the only one holding its rows,
// and Epoch and LatestPerSensor read them without visiting any other
// shard. Like a StoredReading, a candidate is read-only and stays valid
// for as long as it is held.
type Candidate struct {
	ID    string
	table *readTable
}

// Epoch returns the candidate's reading epoch at the cut. Epochs are
// strictly monotonic across floor migrations, so a cached result
// stamped with this value stays comparable against the live table.
func (c *Candidate) Epoch() uint64 { return c.table.epochs[c.ID] }

// LatestPerSensor reduces the candidate's rows at the cut to the
// fusion working set at now, as StoredReading.LatestPerSensor does: the
// newest unexpired row per sensor registered in specs, sorted by
// sensor ID. It never prunes — the snapshot is immutable.
func (c *Candidate) LatestPerSensor(specs map[string]model.SensorSpec, now time.Time) []model.Reading {
	out, _ := latestRows(c.table.rows[c.ID], specs, now)
	return out
}

// SupportCandidates returns, in no particular order, every mobile
// object whose support rectangle intersects region at the cut. This is
// the region-query pre-filter: an object NOT returned is guaranteed to
// have no reading rectangle intersecting region, so support-gated
// aggregate queries (occupancy heatmaps, ObjectsInRegion) can skip it
// without changing their result. Objects returned are candidates only
// — the caller still gates on the live (TTL-filtered) support, and
// sorts them where its merge needs an order. The search runs lock-free
// on the frozen per-shard support R-trees; cost is O(log n + hits) per
// shard rather than O(all objects). IDs are unique: an object's rows
// live in exactly one shard at any cut.
func (s *Snapshot) SupportCandidates(region geom.Rect) []Candidate {
	var out []Candidate
	for _, t := range s.shards {
		t.support.SearchIntersectFunc(region, func(_ geom.Rect, id string) bool {
			out = append(out, Candidate{ID: id, table: t})
			return true
		})
	}
	return out
}
