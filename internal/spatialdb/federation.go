package spatialdb

import (
	"sort"

	"middlewhere/internal/model"
)

// Federation support: the primitives the cross-daemon migration
// protocol is built from. A prepare/commit handoff exports an object's
// rows and epoch from the source daemon, imports them on the
// destination with an epoch guard (idempotent — a replayed prepare
// never double-applies), and only after the destination's ack does the
// source drop its copy. The source keeps serving reads and forwarding
// writes until that commit, so a crash on either side loses nothing.

// HasRecord reports whether the database holds a record for the
// object: it stored or imported a reading for it, and no DropObject
// has removed it since. A record may have no rows left (TTL prune).
func (db *DB) HasRecord(id string) bool {
	sh := db.stripeFor(id)
	sh.readMu.RLock()
	_, ok := sh.table.objs[id]
	sh.readMu.RUnlock()
	return ok
}

// ExportObject copies out the object's stored reading rows and its
// reading epoch — the migration prepare payload — under its stripe's
// read lock, so no concurrent insert can tear it.
func (db *DB) ExportObject(id string) ([]model.Reading, uint64, bool) {
	sh := db.stripeFor(id)
	sh.readMu.RLock()
	defer sh.readMu.RUnlock()
	o := sh.table.objs[id]
	if o == nil {
		return nil, 0, false
	}
	return append([]model.Reading(nil), o.rows...), o.epoch, true
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
// applied — strictly greater than every value either side handed out —
// and does not move on a pure replay, so epochs are never
// double-applied. Returns whether anything was applied; false (a pure
// replay, or stale state already covered locally) is still an
// ack-worthy outcome for the protocol. The merge runs under the
// object's stripe write lock, so a concurrent snapshot sees it entirely
// or not at all.
func (db *DB) ImportObject(id string, rows []model.Reading, epoch uint64) bool {
	if id == "" {
		return false
	}
	sh := db.stripeFor(id)
	sh.readMu.Lock()
	defer sh.readMu.Unlock()
	o := sh.table.rec(id)
	cur, stored := o.epoch, o.rows
	var fresh []model.Reading
	for i := range rows {
		if r := &rows[i]; !containsReading(stored, r) && !containsReading(fresh, r) {
			fresh = append(fresh, *r)
		}
	}
	if len(fresh) == 0 && epoch < cur {
		return false // pure replay: nothing visible changed
	}
	merged := append(append([]model.Reading(nil), stored...), fresh...)
	if len(merged) > maxReadingsPerObject {
		merged = merged[len(merged)-maxReadingsPerObject:]
	}
	o.rows = merged
	sh.table.resetSupport(o)
	o.epoch = max(cur, epoch) + 1
	sh.writeEpoch.Add(1)
	mFedImports.Inc()
	return true
}

// HasReading reports whether the object already stores a row with the
// same reading identity (sameReading). The forwarded-ingest path
// checks it to stay idempotent under at-least-once retries: a sender
// whose connection died after the owner stored the batch — but before
// the reply arrived — retries, and the replayed rows must not store
// twice. The rows are read under the object's stripe read lock; a
// miss allocates nothing.
func (db *DB) HasReading(r model.Reading) bool {
	sh := db.stripeFor(r.MObjectID)
	sh.readMu.RLock()
	defer sh.readMu.RUnlock()
	return containsReading(sh.table.rowsOf(r.MObjectID), &r)
}

// DropObject removes the object's record (rows and epoch) — the
// migration commit on the source after the destination acks. The drop
// happens only when the object's epoch still equals ifEpoch (the value
// exported in the prepare): readings that landed after the export are
// not covered by the destination's ack and must not be deleted — the
// caller re-exports and hands off again. Returns whether the drop
// happened.
func (db *DB) DropObject(id string, ifEpoch uint64) bool {
	sh := db.stripeFor(id)
	sh.readMu.Lock()
	defer sh.readMu.Unlock()
	t := sh.table
	o := t.objs[id]
	if o == nil || o.epoch != ifEpoch {
		return false
	}
	delete(t.objs, id)
	t.unindex(o)
	sh.writeEpoch.Add(1)
	mFedDrops.Inc()
	return true
}

// LocalShardKeys returns, sorted and without duplicates, the floor
// (ShardKeyForGLOB) of each object's newest stored row, collected under
// each stripe's read lock: the floors this database holds readings on,
// what mw.shards reports as Local.
func (db *DB) LocalShardKeys() []string {
	seen := make(map[string]bool)
	for _, sh := range db.stripes {
		sh.readMu.RLock()
		for _, o := range sh.table.objs {
			if n := len(o.rows); n > 0 {
				seen[ShardKeyForGLOB(o.rows[n-1].Location)] = true
			}
		}
		sh.readMu.RUnlock()
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
