package spatialdb

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
)

// snapPoolMaxAge bounds how stale a pooled snapshot may be before
// Snapshot cuts fresh even when nothing changed: spatialdb_snapshot_age_us
// stays bounded for consumers that alert on it. Package variable so the
// pool tests can shrink it.
var snapPoolMaxAge = 250 * time.Millisecond

// shardSnap is one shard's contribution to a Snapshot: the frozen
// reading table, the shard's write epoch at the cut, and the cutSeq
// value the capture validated against (used to revalidate the cut for
// pool reuse and to retry only moved shards during the sweep).
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
// InsertReadings batch — the cut protocol (cut.go) validates every
// shard's capture against its in-flight bracket count and mutation
// sequence, so each batch is either entirely visible or entirely
// absent.
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

// captureShard optimistically captures one shard without any lock: it
// is valid only if no mutation bracket was in flight and the shard's
// cutSeq did not move across the capture. ok=false means the caller
// must retry this shard on the next sweep round.
func (db *DB) captureShard(sh *shard) (shardSnap, bool) {
	seq := sh.cutSeq.Load()
	if sh.pending.Load() != 0 {
		return shardSnap{}, false
	}
	t := sh.table.Load()
	epoch := sh.writeEpoch.Load()
	// Freeze before validating: if the validation passes, no writer
	// mutated between the table load and the freeze, so every later
	// writer clones first (mutableTable) and t is immutable forever. If
	// a writer raced past the freeze, the re-checks below catch it.
	sh.readFrozen.Store(true)
	if sh.pending.Load() != 0 || sh.cutSeq.Load() != seq {
		return shardSnap{}, false
	}
	return shardSnap{key: sh.key, seq: seq, epoch: epoch, table: t}, true
}

// capture assembles a consistent cut of every shard via the optimistic
// sweep (see cut.go): capture each shard, then keep re-verifying the
// whole set — re-capturing shards whose cutSeq moved or with brackets
// in flight — until one full round passes with every shard clean and
// nothing recaptured. The shard list is re-read every round so shards
// created mid-cut are included. prev (may be nil) seeds the captured
// set so shards unchanged since the previous cut reuse its clones.
// After snapSweepRounds unclean rounds it escalates to drainAndCapture.
func (db *DB) capture(prev *Snapshot) []shardSnap {
	began := db.escSeq.Load()
	captured := make(map[string]shardSnap)
	seeded := make(map[string]bool)
	if prev != nil {
		for _, ss := range prev.shards {
			captured[ss.key] = ss
			seeded[ss.key] = true
		}
	}
	for round := 0; round < snapSweepRounds; round++ {
		shards := db.allShards()
		clean := true
		for _, sh := range shards {
			ss, ok := captured[sh.key]
			if ok && sh.pending.Load() == 0 && sh.cutSeq.Load() == ss.seq {
				continue
			}
			if ok && !seeded[sh.key] {
				// A capture taken during THIS cut went stale: a writer
				// won the race this round. (A seeded entry from the
				// previous snapshot being outdated is expected, not a
				// retry.)
				mCutRetries.Inc()
			}
			clean = false
			delete(seeded, sh.key)
			if ss, ok = db.captureShard(sh); ok {
				captured[sh.key] = ss
			} else {
				delete(captured, sh.key)
			}
		}
		if clean {
			return orderedSnaps(shards, captured)
		}
		// An unclean round means writers hold brackets right now; yield
		// so they can finish instead of burning the next round spinning
		// against them (on GOMAXPROCS=1 the spin would otherwise block
		// the very writers it is waiting out until preemption).
		runtime.Gosched()
	}
	return db.drainAndCapture(captured, began)
}

// drainAndCapture is the escalated cut: sustained ingest kept winning
// the sweep's race, so close the gate, drain in-flight brackets, and
// capture stably. New brackets park at the gate (beginBatch), so every
// shard is quiescent while the gate is closed. captured holds the
// sweep's still-valid captures, which are kept; began is escSeq as the
// cut read it on entry.
//
// escMu admits one escalation at a time, from closing the gate to
// reopening it. cutGate is a single boolean: were two cuts to share
// it, the first to finish would reopen the gate under the other, whose
// drain wait then never ends — writers admitted through the open gate
// keep pending non-zero, and wakeCutWaiters skips the broadcast
// because the gate reads open.
//
// Cuts that escalate together still cost ingest one closure, not one
// each: escSeq moves only with the gate closed and every shard
// drained, just before the capture, so a capture numbered above began
// was taken after this cut was called — a consistent cut no older than
// the call, which is all Snapshot promises. A cut that finds one when
// its turn comes returns it and leaves the gate alone. escCut is kept
// only while cuts are queued behind the one that took it.
func (db *DB) drainAndCapture(captured map[string]shardSnap, began uint64) []shardSnap {
	db.escQueued.Add(1)
	mCutEscalations.Inc()
	db.escMu.Lock()
	defer db.escMu.Unlock()
	queued := db.escQueued.Add(-1)
	if cut := db.escCut; cut != nil && db.escSeq.Load() > began {
		if queued == 0 {
			db.escCut = nil
		}
		return cut
	}
	db.gateMu.Lock()
	db.cutGate.Store(true)
	for !db.pendingDrained() {
		db.gateCond.Wait()
	}
	db.escSeq.Add(1)
	shards := db.allShards()
	for _, sh := range shards {
		ss, ok := captured[sh.key]
		if !ok || sh.cutSeq.Load() != ss.seq {
			seq := sh.cutSeq.Load()
			t := sh.table.Load()
			epoch := sh.writeEpoch.Load()
			sh.readFrozen.Store(true)
			captured[sh.key] = shardSnap{key: sh.key, seq: seq, epoch: epoch, table: t}
		}
	}
	db.cutGate.Store(false)
	db.gateCond.Broadcast()
	db.gateMu.Unlock()
	cut := orderedSnaps(shards, captured)
	db.escCut = nil
	if db.escQueued.Load() > 0 {
		db.escCut = cut
	}
	return cut
}

// orderedSnaps lays the captured map out in shard-key order (allShards
// order), dropping entries for shards no longer listed.
func orderedSnaps(shards []*shard, captured map[string]shardSnap) []shardSnap {
	out := make([]shardSnap, 0, len(shards))
	for _, sh := range shards {
		if ss, ok := captured[sh.key]; ok {
			out = append(out, ss)
		}
	}
	return out
}

// cutUnchanged reports whether prev still describes the database
// exactly: same shard set, and every shard quiescent at the cutSeq
// prev captured. True means prev IS a valid cut of the current state.
func (db *DB) cutUnchanged(prev *Snapshot) bool {
	shards := db.allShards()
	if len(shards) != len(prev.shards) {
		return false
	}
	// Both lists are sorted by key, so compare positionally.
	for i, sh := range shards {
		ss := &prev.shards[i]
		if sh.key != ss.key || sh.pending.Load() != 0 || sh.cutSeq.Load() != ss.seq {
			return false
		}
	}
	return db.sensorView.Load() == prev.sensors
}

// Snapshot captures a consistent cut of the database's reading and
// sensor tables. The returned view is immutable and safe for
// concurrent use; it reflects exactly the batches that completed
// before the call. The caller must Close the handle when done.
//
// Snapshot acquires no global mutex: the cut is a lock-free optimistic
// sweep over the per-shard epoch vector (cut.go), escalating to a
// bounded writer gate only under sustained contention. When nothing
// has mutated since the previous cut and that cut is younger than
// snapPoolMaxAge, the previous Snapshot is handed out again
// (spatialdb_snapshot_pool_hits).
func (db *DB) Snapshot() *Snapshot {
	if cur := db.curSnap.Load(); cur != nil &&
		time.Since(cur.at) <= snapPoolMaxAge && db.cutUnchanged(cur) {
		cur.refs.Add(1)
		mSnapPoolHits.Inc()
		mSnapPoolLive.Add(1)
		return cur
	}
	prev := db.curSnap.Load()
	snap := &Snapshot{
		universe: db.universe,
		at:       time.Now(),
		sensors:  db.sensorView.Load(),
		shards:   db.capture(prev),
	}
	if prev != nil {
		mSnapPoolRecycled.Inc()
	}
	snap.refs.Store(1)
	db.curSnap.Store(snap)
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
