package spatialdb

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// snapPoolMaxAge bounds how stale a pooled snapshot may be before
// Snapshot cuts fresh even when nothing changed: spatialdb_snapshot_age_us
// stays bounded for consumers that alert on it. Package variable so the
// pool tests can shrink it.
var snapPoolMaxAge = 250 * time.Millisecond

// shardSnap is one shard's contribution to a Snapshot: the frozen
// reading table, the shard's write epoch at the cut, and the shard's
// cutSeq at the cut — what the next Snapshot compares to reuse the
// whole cut (cutUnchanged) or this shard's capture (capture).
type shardSnap struct {
	key   string
	seq   uint64
	epoch uint64
	table *readTable
}

// Snapshot is an immutable, consistent cut of the reading and sensor
// tables across every shard. Reads on a Snapshot take no locks and see
// a frozen state: concurrent inserts, expiries, and floor migrations
// never show through. A snapshot never observes part of an
// InsertReadings batch: the capture runs with DB.cutMu held
// exclusively, when no batch is in flight on any shard, so each batch
// is either entirely visible or entirely absent.
//
// Snapshots are pooled: consecutive cuts with no intervening mutation
// share one Snapshot value, and unchanged shards keep their table
// clones across cuts. Callers must release each handle with Close when
// done; the spatialdb_snapshot_pool_live gauge counts open handles.
type Snapshot struct {
	universe geom.Rect
	at       time.Time
	sensors  *sensorTable
	shards   []shardSnap

	// refs counts open user handles plus one pool reference while this
	// snapshot is the database's curSnap. Close decrements; the value
	// only gates the live-handle gauge — the data is GC-managed and
	// stays valid for any holder regardless.
	refs atomic.Int32

	// objOnce/objIDs lazily memoize MobileObjects: the snapshot is
	// immutable, so the sorted ID list is computed once and shared by
	// every consumer (heatmap, region scans, triggers) for the pooled
	// snapshot's whole lifetime.
	objOnce sync.Once
	objIDs  []string
}

// Close releases a snapshot handle obtained from DB.Snapshot. Safe on
// nil and idempotent per handle in effect: extra Closes beyond the
// handle count are ignored. The snapshot's data remains readable after
// Close (it is immutable); Close only retires the handle from the
// pool-live accounting.
func (s *Snapshot) Close() {
	if s == nil {
		return
	}
	if s.refs.Add(-1) < 0 {
		s.refs.Add(1)
		return
	}
	mSnapPoolLive.Add(-1)
}

// spatialdb_cut_wait_us records the time a bracket waited for a cut.
// It observes only when the shared lock was not free on the first try,
// so a run with no Snapshot call leaves it empty.
var mCutWaitUs = obs.Default().Histogram("spatialdb_cut_wait_us")

// beginBatch opens a top-level reading-table mutation bracket: cutMu
// held shared until endBatch or endBatchClean. The uncontended path is
// one TryRLock and reads no clock.
func (db *DB) beginBatch() {
	if db.cutMu.TryRLock() {
		return
	}
	start := time.Now()
	db.cutMu.RLock()
	mCutWaitUs.Observe(float64(time.Since(start).Microseconds()))
}

// endBatch closes a bracket that mutated every listed shard. The
// cutSeq bump is what tells the next Snapshot that its pooled cut, and
// its capture of this shard, are out of date; a bracket that turned
// out to mutate nothing uses endBatchClean so that they stay valid.
func (db *DB) endBatch(shs ...*shard) {
	for _, sh := range shs {
		sh.cutSeq.Add(1)
	}
	db.cutMu.RUnlock()
}

// endBatchClean closes a bracket that mutated nothing.
func (db *DB) endBatchClean() { db.cutMu.RUnlock() }

// capture reads every shard's table pointer and write epoch and
// freezes the table, so that the shard's next writer clones first
// (mutableTable). A shard whose cutSeq is still what prev captured
// keeps prev's capture, and with it the clone that capture forced.
// Caller holds cutMu exclusively: no bracket is open, so the tables
// hold whole batches only. Shards are never removed and both lists
// are sorted by key, so prev's are walked alongside.
func (db *DB) capture(prev *Snapshot) []shardSnap {
	var old []shardSnap
	if prev != nil {
		old = prev.shards
	}
	shards := db.allShards()
	out := make([]shardSnap, len(shards))
	for i, sh := range shards {
		seq := sh.cutSeq.Load()
		if len(old) > 0 && old[0].key == sh.key {
			ss := old[0]
			old = old[1:]
			if ss.seq == seq {
				out[i] = ss
				continue
			}
		}
		sh.readFrozen.Store(true)
		out[i] = shardSnap{key: sh.key, seq: seq, epoch: sh.writeEpoch.Load(), table: sh.table.Load()}
	}
	return out
}

// cutUnchanged reports whether prev still describes the database
// exactly: same shard set, every shard at the cutSeq prev captured,
// same sensor table. Caller holds cutMu exclusively.
func (db *DB) cutUnchanged(prev *Snapshot) bool {
	shards := db.allShards()
	if len(shards) != len(prev.shards) {
		return false
	}
	// Both lists are sorted by key, so compare positionally.
	for i, sh := range shards {
		ss := &prev.shards[i]
		if sh.key != ss.key || sh.cutSeq.Load() != ss.seq {
			return false
		}
	}
	return db.sensorView.Load() == prev.sensors
}

// Snapshot captures a consistent cut of the database's reading and
// sensor tables. The returned view is immutable and safe for
// concurrent use; it holds every batch that completed before the call,
// and all of a batch or none of it. The caller must Close the handle
// when done.
//
// Snapshot holds cutMu exclusively for the pool check and the
// O(shards) capture, so it waits for the brackets in flight and a
// bracket that arrives meanwhile waits for it. When nothing has
// mutated since the previous cut and that cut is younger than
// snapPoolMaxAge, the previous Snapshot is handed out again
// (spatialdb_snapshot_pool_hits). Never call it from inside a bracket
// (see DB.cutMu).
func (db *DB) Snapshot() *Snapshot {
	db.cutMu.Lock()
	now := time.Now()
	prev := db.curSnap
	if prev != nil && now.Sub(prev.at) <= snapPoolMaxAge && db.cutUnchanged(prev) {
		prev.refs.Add(1)
		db.cutMu.Unlock()
		mSnapPoolHits.Inc()
		mSnapPoolLive.Add(1)
		return prev
	}
	snap := &Snapshot{
		universe: db.universe,
		at:       now,
		sensors:  db.sensorView.Load(),
		shards:   db.capture(prev),
	}
	snap.refs.Store(1)
	db.curSnap = snap
	db.cutMu.Unlock()
	if prev != nil {
		mSnapPoolRecycled.Inc()
	}
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

// rowsFor returns the object's raw rows at the cut. An object's rows
// live in exactly one shard at any cut (floor migration moves them
// atomically), so the first table that knows the object wins.
func (s *Snapshot) rowsFor(mobjectID string) []model.Reading {
	for i := range s.shards {
		if rows, ok := s.shards[i].table.rows[mobjectID]; ok {
			return rows
		}
	}
	return nil
}

// ReadingEpoch returns the object's reading epoch at the cut, 0 when
// the object had no rows. Epochs are strictly monotonic across floor
// migrations, so a cached result stamped with this value stays
// comparable against the live table.
func (s *Snapshot) ReadingEpoch(mobjectID string) uint64 {
	for i := range s.shards {
		if e, ok := s.shards[i].table.epochs[mobjectID]; ok {
			return e
		}
	}
	return 0
}

// ReadingsFor returns the object's rows at the cut that are unexpired
// at time now, applying each sensor's TTL from the captured metadata
// table. Unlike the live path it never prunes — the snapshot is
// immutable.
func (s *Snapshot) ReadingsFor(mobjectID string, now time.Time) []model.Reading {
	rows := s.rowsFor(mobjectID)
	if len(rows) == 0 {
		return nil
	}
	live := make([]model.Reading, 0, len(rows))
	for _, r := range rows {
		spec, ok := s.sensors.specs[r.SensorID]
		if !ok || r.Expired(now, spec.TTL) {
			continue
		}
		live = append(live, r)
	}
	return live
}

// LatestPerSensor returns, for each sensor with an unexpired reading
// for the object at the cut, only its newest one — the fusion working
// set, identical in shape to DB.LatestPerSensor.
func (s *Snapshot) LatestPerSensor(mobjectID string, now time.Time) []model.Reading {
	out, _ := latestRows(s.rowsFor(mobjectID), s.sensors.specs, now)
	return out
}

// MobileObjects returns the IDs of all objects with stored readings at
// the cut, sorted. The list is computed once per snapshot and shared:
// callers must not mutate it.
func (s *Snapshot) MobileObjects() []string {
	s.objOnce.Do(func() {
		n := 0
		for i := range s.shards {
			n += len(s.shards[i].table.rows)
		}
		out := make([]string, 0, n)
		for i := range s.shards {
			for id := range s.shards[i].table.rows {
				out = append(out, id)
			}
		}
		sort.Strings(out)
		s.objIDs = out
	})
	return s.objIDs
}

// Candidate is one support-index hit: a mobile object whose indexed
// support rectangle intersects a queried region. Support is the
// indexed rectangle — a conservative superset of the bounding box of
// the object's live readings at the cut (see readTable.support).
type Candidate struct {
	ID      string
	Support geom.Rect
}

// SupportCandidates returns every mobile object whose support
// rectangle intersects region at the cut, sorted by ID. This is the
// region-query pre-filter: an object NOT returned is guaranteed to
// have no reading rectangle intersecting region, so support-gated
// aggregate queries (occupancy heatmaps, ObjectsInRegion) can skip it
// without changing their result. Objects returned are candidates only
// — the caller still gates on the live (TTL-filtered) support. The
// search runs lock-free on the frozen per-shard support R-trees; cost
// is O(log n + hits) per shard rather than O(all objects).
func (s *Snapshot) SupportCandidates(region geom.Rect) []Candidate {
	var out []Candidate
	for i := range s.shards {
		s.shards[i].table.support.SearchIntersectFunc(region, func(r geom.Rect, id string) bool {
			out = append(out, Candidate{ID: id, Support: r})
			return true
		})
	}
	// An object's rows live in exactly one shard at any cut, so IDs
	// are unique; sort for a deterministic fan-out and merge order.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
