package spatialdb

import (
	"sort"
	"strings"
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

// ShardMetricName returns the registry name of a per-shard metric: the
// base name with a Prometheus-style shard label, e.g.
//
//	spatialdb_shard_inserts_total{shard="CS/Floor3"}
//
// The obs registry is flat, so the label is part of the name; the
// /metrics exposition is still valid Prometheus text format.
func ShardMetricName(base, shardKey string) string {
	return base + `{shard="` + shardKey + `"}`
}

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

// shardKeyForID maps an object's GLOB string to its shard without
// parsing: the first two '/'-separated symbolic segments (a coordinate
// component, starting with '(', ends the path).
func shardKeyForID(id string) string {
	key := ""
	rest := id
	for seg := 0; seg < 2 && rest != ""; seg++ {
		part := rest
		if j := strings.IndexByte(rest, '/'); j >= 0 {
			part, rest = rest[:j], rest[j+1:]
		} else {
			rest = ""
		}
		if part == "" || part[0] == '(' {
			break
		}
		if key == "" {
			key = part
		} else {
			key += "/" + part
		}
	}
	if key == "" {
		return rootShardKey
	}
	return key
}

// readTable is one shard's reading storage (Table 2 rows plus the
// per-object epoch counters), read and written under the shard's
// readMu.
//
// Row slice headers leave the lock without a copy — StoredReading.Rows
// and prev, a region scan's Candidate — and what a held header covers
// stays bit-identical, because each object's backing array has a
// single writer that never rewrites a slot:
//
//   - Only the table of the object's resident shard appends to the
//     array, under that shard's readMu, and always from the newest
//     slice header (a migration moves the header to the new resident).
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
	rows   map[string][]model.Reading
	epochs map[string]uint64

	// support indexes, per object, a rectangle guaranteed to contain
	// the bounding box of the object's live (TTL-filtered) readings —
	// the candidate pre-filter for region-shaped queries (DESIGN.md
	// §17). supRect mirrors the indexed rectangle so maintenance can
	// Delete the exact prior entry. The rect is a conservative
	// superset: inserts only union it wider (growSupport); prune,
	// expiry, migration, and federation recompute it exactly
	// (resetSupport). A region scan searches it under the shard's
	// read lock (Snapshot).
	support *rtree.Tree
	supRect map[string]geom.Rect
}

func newReadTable() *readTable {
	return &readTable{
		rows:    make(map[string][]model.Reading),
		epochs:  make(map[string]uint64),
		support: rtree.New(),
		supRect: make(map[string]geom.Rect),
	}
}

// growSupport widens the object's indexed support rectangle to cover r.
// Caller holds the shard's readMu exclusively. The steady-state case — a reading inside the already-indexed box — is a
// map lookup and a containment check, with no tree mutation at all.
func (t *readTable) growSupport(id string, r geom.Rect) {
	cur, ok := t.supRect[id]
	if !ok {
		t.support.Insert(r, id)
		t.supRect[id] = r
		return
	}
	if cur.ContainsRect(r) {
		return
	}
	u := cur.Union(r)
	t.support.Delete(cur, id)
	t.support.Insert(u, id)
	t.supRect[id] = u
}

// resetSupport recomputes the object's support entry exactly from rows
// (the bounding box of every stored row's region); empty rows remove
// the entry. Caller holds the shard's readMu exclusively.
func (t *readTable) resetSupport(id string, rows []model.Reading) {
	cur, had := t.supRect[id]
	if len(rows) == 0 {
		if had {
			t.support.Delete(cur, id)
			delete(t.supRect, id)
		}
		return
	}
	u := rows[0].Region
	for _, r := range rows[1:] {
		u = u.Union(r.Region)
	}
	if had {
		if u.Eq(cur) {
			return
		}
		t.support.Delete(cur, id)
	}
	t.support.Insert(u, id)
	t.supRect[id] = u
}

// shard is one floor's slice of the database: its own object table and
// R-tree, its own reading table, and its own locks — so ingest and
// expiry on independent floors never contend, and each R-tree stays
// bounded by one floor's population.
type shard struct {
	key string

	// Object table + R-tree. Writers hold objMu exclusively; every
	// object query searches the live index under the read lock.
	objMu   sync.RWMutex
	objects map[string]*Object
	objIdx  *rtree.Tree

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

	mInserts    *obs.Counter
	mRTreeNodes *obs.Gauge
}

func newShard(key string) *shard {
	sh := &shard{
		key:         key,
		objects:     make(map[string]*Object),
		objIdx:      rtree.New(),
		table:       newReadTable(),
		mInserts:    obs.Default().Counter(ShardMetricName("spatialdb_shard_inserts_total", key)),
		mRTreeNodes: obs.Default().Gauge(ShardMetricName("spatialdb_shard_rtree_nodes", key)),
	}
	return sh
}

// shardFor returns the shard for a key if it exists.
func (db *DB) shardFor(key string) (*shard, bool) {
	db.shardMu.RLock()
	sh, ok := db.shards[key]
	db.shardMu.RUnlock()
	return sh, ok
}

// ensureShard returns the shard for a key, creating it on first use.
func (db *DB) ensureShard(key string) *shard {
	if sh, ok := db.shardFor(key); ok {
		return sh
	}
	db.shardMu.Lock()
	defer db.shardMu.Unlock()
	if sh, ok := db.shards[key]; ok {
		return sh
	}
	sh := newShard(key)
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

// ShardStat describes one shard for stats surfaces (mwctl stats).
type ShardStat struct {
	// Key is the shard's GLOB prefix (top-two path components).
	Key string `json:"key"`
	// Objects is the number of object-table rows homed here.
	Objects int `json:"objects"`
	// MobileObjects is the number of objects with stored readings.
	MobileObjects int `json:"mobile_objects"`
	// Readings is the total number of stored reading rows.
	Readings int `json:"readings"`
	// RTreeNodes is the object R-tree's entry count.
	RTreeNodes int `json:"rtree_nodes"`
	// SupportRects is the reading-support R-tree's entry count (one
	// per mobile object homed here) — the candidate pre-filter index.
	SupportRects int `json:"support_rects"`
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
		sh.objMu.RLock()
		st.Objects = len(sh.objects)
		st.RTreeNodes = sh.objIdx.Len()
		sh.objMu.RUnlock()
		sh.readMu.RLock()
		t := sh.table
		st.MobileObjects = len(t.rows)
		st.SupportRects = t.support.Len()
		for _, rows := range t.rows {
			st.Readings += len(rows)
		}
		sh.readMu.RUnlock()
		out = append(out, st)
	}
	return out
}
