package spatialdb

import (
	"sort"
	"sync"
	"sync/atomic"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rtree"
)

// Shard-layer metrics (per-shard counters are created with the shard;
// see newShard).
var (
	mShards     = obs.Default().Gauge("spatialdb_shards")
	mMigrations = obs.Default().Counter("spatialdb_shard_migrations_total")
	mSnapshots  = obs.Default().Counter("spatialdb_snapshots_total")
	mFedImports = obs.Default().Counter("spatialdb_fed_imports_total")
	mFedDrops   = obs.Default().Counter("spatialdb_fed_drops_total")

	// mSnapPoolLive counts open Snapshot handles: every Snapshot return
	// adds one, the first Close on a handle removes one. An open handle
	// holds the DB's cut turn and every shard's read lock, and so blocks
	// every other cut and every writer; a steady state of zero proves no
	// caller leaks cuts.
	mSnapPoolLive = obs.Default().Gauge("spatialdb_snapshot_pool_live")
)

// rootShardKey is the shard for locations whose GLOB has no symbolic
// path components (a bare coordinate in the universe frame).
const rootShardKey = "(root)"

// shardKeyForGLOB maps a GLOB to its shard: the top-two symbolic path
// components ("CS/Floor3/NetLab" → "CS/Floor3"). Buildings partition
// into floors, floors own their rooms, and GLOB prefixes are stable —
// so the key never changes for a fixed location, and range queries
// against a floor stay within one shard (unlike hash sharding).
func shardKeyForGLOB(g glob.GLOB) string {
	switch len(g.Path) {
	case 0:
		return rootShardKey
	case 1:
		return g.Path[0]
	default:
		return g.Path[0] + "/" + g.Path[1]
	}
}

// readTable is one shard's reading storage: one record per mobile
// object resident on the shard (its Table 2 rows, its reading epoch
// and its support entry), read and written under the shard's readMu.
//
// Row slice headers leave the lock without a copy — StoredReading.Rows
// and prev, a region scan's Candidate — and what a held header covers
// stays bit-identical, because each object's backing array has a
// single writer that never rewrites a slot:
//
//   - Only the table of the object's resident shard appends to the
//     array, under that shard's readMu, and always from the newest
//     slice header (a migration moves the record to the new resident).
//     Every held header was the live one when it was read, so its end
//     is at or before the live header's end, and its holder never
//     writes through it.
//   - An append writes the slot just past the live header's end — past
//     every held header's end — or, with capacity exhausted, copies
//     into a new array and leaves the old one untouched.
//   - The ring trim at maxReadingsPerObject only re-slices the live
//     header's head forward; it writes nothing.
//   - Everything else that changes an object's rows (TTL prune, forced
//     expiry, federation import) installs a freshly allocated slice.
type readTable struct {
	// objs holds the record of every object resident here. A record
	// outlives its rows: a TTL prune or expiry leaves it with no rows
	// and its epoch, so an object that returns continues its epoch and
	// never meets a fusion cached under an epoch it reuses. Only a
	// migration (which moves it) and DropObject remove it.
	objs map[string]*objRec

	// support indexes, per object with rows, a rectangle guaranteed to
	// contain the bounding box of the object's live (TTL-filtered)
	// readings — the candidate pre-filter for region-shaped queries
	// (DESIGN.md §17). Its values are the records themselves, so a
	// region scan reads each hit's rows and epoch with no lookup. The
	// rect is a conservative superset: inserts only union it wider
	// (growSupport); prune, expiry, migration, and federation recompute
	// it exactly (resetSupport). A region scan searches it under the
	// shard's read lock (Snapshot).
	support *rtree.Tree[*objRec]
}

// objRec is one mobile object's reading state on its resident shard.
type objRec struct {
	id    string
	rows  []model.Reading
	epoch uint64
	// sup is the object's support rectangle as indexed, valid while
	// indexed: the tree entry maintenance deletes exactly.
	sup     geom.Rect
	indexed bool
}

func newReadTable() *readTable {
	return &readTable{objs: make(map[string]*objRec), support: rtree.New[*objRec]()}
}

// rec returns the object's record, creating an empty one on first use.
// Caller holds the shard's readMu exclusively.
func (t *readTable) rec(id string) *objRec {
	o := t.objs[id]
	if o == nil {
		o = &objRec{id: id}
		t.objs[id] = o
	}
	return o
}

// rowsOf returns the object's stored rows, nil when it has none. Caller
// holds the shard's readMu.
func (t *readTable) rowsOf(id string) []model.Reading {
	if o := t.objs[id]; o != nil {
		return o.rows
	}
	return nil
}

// epochOf returns the object's reading epoch, 0 when it has no record.
// Caller holds the shard's readMu.
func (t *readTable) epochOf(id string) uint64 {
	if o := t.objs[id]; o != nil {
		return o.epoch
	}
	return 0
}

// growSupport widens the object's indexed support rectangle to cover r.
// Caller holds the shard's readMu exclusively. The steady-state case —
// a reading inside the already-indexed box — is a containment check,
// with no tree mutation at all.
func (t *readTable) growSupport(o *objRec, r geom.Rect) {
	switch {
	case !o.indexed:
		o.sup, o.indexed = r, true
	case o.sup.ContainsRect(r):
		return
	default:
		t.support.Delete(o.sup, o)
		o.sup = o.sup.Union(r)
	}
	t.support.Insert(o.sup, o)
}

// resetSupport recomputes the object's support entry exactly from its
// rows (the bounding box of every stored row's region); empty rows
// remove the entry. Caller holds the shard's readMu exclusively.
func (t *readTable) resetSupport(o *objRec) {
	if len(o.rows) == 0 {
		t.unindex(o)
		return
	}
	u := o.rows[0].Region
	for _, r := range o.rows[1:] {
		u = u.Union(r.Region)
	}
	if o.indexed && u.Eq(o.sup) {
		return
	}
	t.unindex(o)
	o.sup, o.indexed = u, true
	t.support.Insert(u, o)
}

// unindex removes the object's support entry, if it has one.
func (t *readTable) unindex(o *objRec) {
	if o.indexed {
		t.support.Delete(o.sup, o)
		o.indexed = false
	}
}

// shard is one floor's slice of the reading table, with its own lock,
// so ingest and expiry on independent floors never contend. A shard
// is created by the first reading stored on its floor (InsertReadings
// or ImportObject) and holds only readings: building geometry lives in
// the DB's one object table.
type shard struct {
	key string

	// Reading table (see readTable). Writers hold readMu exclusively,
	// readers shared; a Snapshot holds it shared until Close.
	readMu sync.RWMutex
	table  *readTable
	// writeEpoch counts reading-table mutation batches on this shard,
	// surfaced in ShardStats.
	writeEpoch atomic.Uint64

	// inserts counts readings stored here (mirrors the per-shard
	// counter for ShardStats without a registry read).
	inserts atomic.Uint64

	mInserts *obs.Counter
}

func newShard(key string) *shard {
	return &shard{
		key:      key,
		table:    newReadTable(),
		mInserts: obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", key)),
	}
}

// ensureShard returns the shard for a key, creating it on first use.
func (db *DB) ensureShard(key string) *shard {
	db.shardMu.RLock()
	sh, ok := db.shards[key]
	db.shardMu.RUnlock()
	if ok {
		return sh
	}
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	if sh, ok := db.shards[key]; ok {
		return sh
	}
	sh = newShard(key)
	db.shards[key] = sh
	// Copy-on-write for the ordered slice: allShards hands the current
	// slice to lock-free iteration, so it is never appended in place.
	order := make([]*shard, 0, len(db.order)+1)
	order = append(order, db.order...)
	order = append(order, sh)
	sort.Slice(order, func(i, j int) bool { return order[i].key < order[j].key })
	db.order = order
	mShards.Set(float64(len(db.shards)))
	return sh
}

// allShards returns the shards sorted by key. The slice is immutable
// (replaced wholesale on shard creation), so callers iterate without a
// lock.
func (db *DB) allShards() []*shard {
	db.shardMu.RLock()
	order := db.order
	db.shardMu.RUnlock()
	return order
}

// ShardStat describes one shard for stats surfaces (mw.stats, mwctl
// stats); the JSON names are mw.stats's.
type ShardStat struct {
	// Key is the shard's GLOB prefix (top-two path components).
	Key string `json:"key"`
	// MobileObjects is the number of objects with stored readings.
	MobileObjects int `json:"mobileObjects"`
	// Readings is the total number of stored reading rows.
	Readings int `json:"readings"`
	// SupportRects is the reading-support R-tree's entry count (one
	// per mobile object homed here) — the candidate pre-filter index.
	SupportRects int `json:"supportRects"`
	// Epoch is the shard's write epoch (mutation batches applied).
	Epoch uint64 `json:"epoch"`
	// Inserts counts readings stored since the database was created.
	Inserts uint64 `json:"inserts"`
}

// ShardStats reports per-shard table sizes and write epochs, sorted by
// shard key.
func (db *DB) ShardStats() []ShardStat {
	shards := db.allShards()
	out := make([]ShardStat, 0, len(shards))
	for _, sh := range shards {
		st := ShardStat{
			Key:     sh.key,
			Epoch:   sh.writeEpoch.Load(),
			Inserts: sh.inserts.Load(),
		}
		sh.readMu.RLock()
		t := sh.table
		st.SupportRects = t.support.Len()
		for _, o := range t.objs {
			if len(o.rows) > 0 {
				st.MobileObjects++
				st.Readings += len(o.rows)
			}
		}
		sh.readMu.RUnlock()
		out = append(out, st)
	}
	return out
}
