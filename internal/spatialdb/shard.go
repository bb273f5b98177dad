package spatialdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rtree"
)

// Stripe-layer metrics (per-stripe counters are created with the
// stripe; see DB.New).
var (
	mSnapshots  = obs.Default().Counter("spatialdb_snapshots_total")
	mFedImports = obs.Default().Counter("spatialdb_fed_imports_total")
	mFedDrops   = obs.Default().Counter("spatialdb_fed_drops_total")

	// mSnapPoolLive counts open Snapshot handles: every Snapshot return
	// adds one, the first Close on a handle removes one. An open handle
	// holds the DB's cut turn and every stripe's read lock, and so
	// blocks every other cut and every writer; a steady state of zero
	// proves no caller leaks cuts.
	mSnapPoolLive = obs.Default().Gauge("spatialdb_snapshot_pool_live")
)

// ShardKeyForGLOB maps a location to its floor key: the top-two
// symbolic path components ("CS/Floor3/NetLab" → "CS/Floor3"), or
// "(root)" for a bare coordinate in the universe frame. The federation
// router partitions daemons by it, LocalShardKeys reports it, and the
// support index resets when an object's floor changes (growRows).
func ShardKeyForGLOB(g glob.GLOB) string {
	switch len(g.Path) {
	case 0:
		return "(root)"
	case 1:
		return g.Path[0]
	default:
		return g.Path[0] + "/" + g.Path[1]
	}
}

// sameFloor reports whether two locations share their top-two path
// components (the key ShardKeyForGLOB builds), without building it.
func sameFloor(a, b glob.GLOB) bool {
	n := min(len(a.Path), 2)
	if min(len(b.Path), 2) != n {
		return false
	}
	for i := 0; i < n; i++ {
		if a.Path[i] != b.Path[i] {
			return false
		}
	}
	return true
}

// stripeCount is the number of reading-table stripes. An object's
// record lives in the stripe its ID hashes to for its whole life, so no
// write ever moves it.
const stripeCount = 16

// stripeOf returns the index of the stripe holding the object's
// record: the FNV-1a hash of its ID, modulo stripeCount.
func stripeOf(id string) int {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % stripeCount)
}

// readTable is one stripe's reading storage: one record per mobile
// object whose ID hashes to the stripe (its Table 2 rows, its reading
// epoch and its support entry), read and written under the stripe's
// readMu.
//
// Row slice headers leave the lock without a copy — StoredReading.Rows
// and prev, a region scan's Candidate — and what a held header covers
// stays bit-identical, because each object's backing array has a
// single writer that never rewrites a slot:
//
//   - Only the object's stripe appends to the array, under that
//     stripe's readMu, and always from the newest slice header. Every
//     held header was the live one when it was read, so its end is at
//     or before the live header's end, and its holder never writes
//     through it.
//   - An append writes the slot just past the live header's end — past
//     every held header's end — or, with capacity exhausted, copies
//     into a new array and leaves the old one untouched.
//   - The ring trim at maxReadingsPerObject only re-slices the live
//     header's head forward; it writes nothing.
//   - Everything else that changes an object's rows (TTL prune, forced
//     expiry, federation import) installs a freshly allocated slice.
type readTable struct {
	// objs holds the record of every object hashed here. A record
	// outlives its rows: a TTL prune or expiry leaves it with no rows
	// and its epoch, so an object that returns continues its epoch and
	// never meets a fusion cached under an epoch it reuses. Only
	// DropObject removes it.
	objs map[string]*objRec

	// support indexes, per object with rows, a rectangle guaranteed to
	// contain the bounding box of the object's live (TTL-filtered)
	// readings — the candidate pre-filter for region-shaped queries
	// (DESIGN.md §17). Its values are the records themselves, so a
	// region scan reads each hit's rows and epoch with no lookup. The
	// rect is a conservative superset: an insert on the object's floor
	// only unions it wider (growSupport); an insert that changes the
	// object's floor, prune, expiry and federation import recompute it
	// exactly (resetSupport). A region scan searches it under the
	// stripe's read lock (Snapshot).
	support *rtree.Tree[*objRec]
}

// objRec is one mobile object's reading state in its stripe.
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
// Caller holds the stripe's readMu exclusively.
func (t *readTable) rec(id string) *objRec {
	o := t.objs[id]
	if o == nil {
		o = &objRec{id: id}
		t.objs[id] = o
	}
	return o
}

// rowsOf returns the object's stored rows, nil when it has none. Caller
// holds the stripe's readMu.
func (t *readTable) rowsOf(id string) []model.Reading {
	if o := t.objs[id]; o != nil {
		return o.rows
	}
	return nil
}

// epochOf returns the object's reading epoch, 0 when it has no record.
// Caller holds the stripe's readMu.
func (t *readTable) epochOf(id string) uint64 {
	if o := t.objs[id]; o != nil {
		return o.epoch
	}
	return 0
}

// growSupport widens the object's indexed support rectangle to cover r.
// Caller holds the stripe's readMu exclusively. The steady-state case —
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
// remove the entry. Caller holds the stripe's readMu exclusively.
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

// stripe is one slice of the reading table, with its own lock, so
// ingest and expiry for objects in different stripes never contend.
// All stripeCount stripes exist from New on; they hold only readings:
// building geometry lives in the DB's one object table.
type stripe struct {
	key string

	// Reading table (see readTable). Writers hold readMu exclusively,
	// readers shared; a Snapshot holds it shared until Close.
	readMu sync.RWMutex
	table  *readTable
	// writeEpoch counts reading-table mutation batches on this stripe,
	// surfaced in ShardStats.
	writeEpoch atomic.Uint64

	// inserts counts readings stored here (mirrors the per-stripe
	// counter for ShardStats without a registry read).
	inserts atomic.Uint64

	mInserts *obs.Counter
}

func newStripe(i int) *stripe {
	key := fmt.Sprintf("%02d", i)
	return &stripe{
		key:      key,
		table:    newReadTable(),
		mInserts: obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", key)),
	}
}

// stripeFor returns the stripe holding the object's record.
func (db *DB) stripeFor(id string) *stripe { return db.stripes[stripeOf(id)] }

// ShardStat describes one reading-table stripe for stats surfaces
// (mw.stats, mwctl stats); the JSON names are mw.stats's.
type ShardStat struct {
	// Key is the stripe's index, two digits ("00".."15").
	Key string `json:"key"`
	// MobileObjects is the number of objects with stored readings.
	MobileObjects int `json:"mobileObjects"`
	// Readings is the total number of stored reading rows.
	Readings int `json:"readings"`
	// SupportRects is the reading-support R-tree's entry count (one
	// per mobile object with rows) — the candidate pre-filter index.
	SupportRects int `json:"supportRects"`
	// Epoch is the stripe's write epoch (mutation batches applied).
	Epoch uint64 `json:"epoch"`
	// Inserts counts readings stored since the database was created.
	Inserts uint64 `json:"inserts"`
}

// ShardStats reports per-stripe table sizes and write epochs, in
// stripe order.
func (db *DB) ShardStats() []ShardStat {
	out := make([]ShardStat, 0, stripeCount)
	for _, sh := range db.stripes {
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
