package spatialdb

import (
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// Federation support: the primitives the cross-daemon migration
// protocol is built from. A prepare/commit handoff exports an object's
// rows and epoch from the source daemon, imports them on the
// destination with an epoch guard (idempotent — a replayed prepare
// never double-applies), and only after the destination's ack does the
// source drop its copy. The source keeps serving reads and forwarding
// writes until that commit, so a crash on either side loses nothing.

// ShardKeyForGLOB maps a location to its floor shard key (the top-two
// symbolic path components). Exposed for the federation router, which
// partitions daemons by the same key the in-process shards use.
func ShardKeyForGLOB(g glob.GLOB) string { return shardKeyForGLOB(g) }

// ObjectShardKey reports which local shard currently holds the
// object's reading rows, if any.
func (db *DB) ObjectShardKey(id string) (string, bool) {
	if sh := db.residentShard(id); sh != nil {
		return sh.key, true
	}
	return "", false
}

// ExportObject copies out the object's stored reading rows and its
// reading epoch — the migration prepare payload. The copy is taken
// atomically with residence, so a concurrent in-process floor change
// cannot tear it.
func (db *DB) ExportObject(id string) ([]model.Reading, uint64, bool) {
	sh := db.rlockResident(id)
	if sh == nil {
		return nil, 0, false
	}
	defer sh.readMu.RUnlock()
	t := sh.table
	return append([]model.Reading(nil), t.rowsOf(id)...), t.epochOf(id), true
}

// sameReading is the reading identity behind both federation dedups
// (forwarded-ingest replays and the migration merge): one sensor
// observing one object at one instant at one location is one reading,
// however many times the protocol replays it. Fields compare cheapest
// first — the nanosecond timestamp, then the sensor, and only then the
// location text — so a row that differs in time or sensor, which is
// nearly every row of an object's ring, is told apart without
// formatting a GLOB. Locations compare as text, not as numbers, so +0
// and -0 differ and NaN matches NaN, exactly as in the location string
// the federation wire carries.
func sameReading(a, b *model.Reading) bool {
	return a.Time.UnixNano() == b.Time.UnixNano() &&
		a.SensorID == b.SensorID &&
		a.Location.String() == b.Location.String()
}

// containsReading reports whether rows hold a row with r's identity.
// It walks by index: no row is copied.
func containsReading(rows []model.Reading, r *model.Reading) bool {
	for i := range rows {
		if sameReading(&rows[i], r) {
			return true
		}
	}
	return false
}

// ImportObject merges a migrated object's rows into the local table
// under an epoch guard. Rows are deduplicated by reading identity
// (sameReading), so a replayed prepare — the destination restarted after
// acking, or the source retried after a lost ack — adds nothing; and a
// merge (rather than a replace) means rows a daemon accumulated while
// degraded are never clobbered by a handoff at a lower epoch. The
// local epoch advances to max(local, incoming)+1 when anything was
// applied — strictly greater than every value either side handed out,
// exactly like the in-process floor migration — and does not move on a
// pure replay, so epochs are never double-applied. Returns whether
// anything was applied; false (a pure replay, or stale state already
// covered locally) is still an ack-worthy outcome for the protocol.
func (db *DB) ImportObject(id string, rows []model.Reading, epoch uint64) bool {
	if id == "" {
		return false
	}
	key := rootShardKey
	if len(rows) > 0 {
		key = shardKeyForGLOB(rows[len(rows)-1].Location)
	}
	sh := db.ensureShard(key)
	// The merge runs under the shard's write lock, so a concurrent
	// snapshot sees it entirely or not at all. placeObject moves the
	// object first under its own locks, so a snapshot may see that move
	// (rows on this shard, epoch advanced) before the merge.
	for {
		db.placeObject(id, sh)
		sh.readMu.Lock()
		if db.residentShard(id) != sh {
			sh.readMu.Unlock()
			continue // lost a race with another migration; re-place
		}
		o := sh.table.rec(id)
		cur, stored := o.epoch, o.rows
		var fresh []model.Reading
		for i := range rows {
			if r := &rows[i]; !containsReading(stored, r) && !containsReading(fresh, r) {
				fresh = append(fresh, *r)
			}
		}
		if len(fresh) == 0 && epoch < cur {
			sh.readMu.Unlock() // pure replay: nothing visible changed
			return false
		}
		merged := append(append([]model.Reading(nil), stored...), fresh...)
		if len(merged) > maxReadingsPerObject {
			merged = merged[len(merged)-maxReadingsPerObject:]
		}
		o.rows = merged
		sh.table.resetSupport(o)
		o.epoch = max(cur, epoch) + 1
		sh.writeEpoch.Add(1)
		sh.readMu.Unlock()
		mFedImports.Inc()
		return true
	}
}

// HasReading reports whether the object already stores a row with the
// same reading identity (sameReading). The forwarded-ingest path
// checks it to stay idempotent under at-least-once retries: a sender
// whose connection died after the owner stored the batch — but before
// the reply arrived — retries, and the replayed rows must not store
// twice. The rows are read atomically with residence, so a concurrent
// floor migration cannot make a stored reading look new; a miss
// allocates nothing.
func (db *DB) HasReading(r model.Reading) bool {
	sh := db.rlockResident(r.MObjectID)
	if sh == nil {
		return false
	}
	defer sh.readMu.RUnlock()
	return containsReading(sh.table.rowsOf(r.MObjectID), &r)
}

// DropObject removes the object's record (rows and epoch) and its
// residence entry — the migration commit on the source after the
// destination acks. The drop happens only when the object's epoch
// still equals ifEpoch (the value exported in the prepare): readings
// that landed after the export are not covered by the destination's
// ack and must not be deleted — the caller re-exports and hands off
// again. Returns whether the drop happened.
func (db *DB) DropObject(id string, ifEpoch uint64) bool {
	for {
		cur, ok := db.residence.Load(id)
		if !ok {
			return false
		}
		sh := cur.(*shard)
		// migMu serializes against placeObject so residence cannot move
		// the object to another shard between the re-check and the
		// table edit.
		db.migMu.Lock()
		if cur2, ok2 := db.residence.Load(id); !ok2 || cur2.(*shard) != sh {
			db.migMu.Unlock()
			if !ok2 {
				return false
			}
			continue // raced a migration before migMu
		}
		sh.readMu.Lock()
		t := sh.table
		if t.epochOf(id) != ifEpoch {
			sh.readMu.Unlock()
			db.migMu.Unlock()
			return false
		}
		if o := t.objs[id]; o != nil {
			delete(t.objs, id)
			t.unindex(o)
		}
		sh.writeEpoch.Add(1)
		db.residence.Delete(id)
		sh.readMu.Unlock()
		db.migMu.Unlock()
		mFedDrops.Inc()
		return true
	}
}

// LocalShardKeys returns the keys of the reading shards this database
// has materialized, sorted: the floors a reading was stored on (or
// imported to), what mw.shards reports as Local.
func (db *DB) LocalShardKeys() []string {
	shards := db.allShards()
	out := make([]string, 0, len(shards))
	for _, sh := range shards {
		out = append(out, sh.key)
	}
	return out
}
