// Package spatialdb is MiddleWhere's spatial database (§5) — the
// in-process substitute for the PostGIS/PostgreSQL instance the paper
// deploys. It stores
//
//   - the physical-space object table (Table 1: ObjectIdentifier,
//     GlobPrefix, ObjectType, GeometryType, Points),
//   - the sensor-reading table (Table 2) with temporal information,
//   - the per-sensor metadata table (confidence and time-to-live,
//     §5.2), and
//   - location triggers (§5.3) evaluated on every reading insert.
//
// The object table is building geometry, written only at building
// load and by region definitions, so it is one table with one R-tree
// under one lock, as in the paper's PostGIS deployment. The reading
// table is striped by object: a hash of the mobile object's ID picks
// one of a fixed set of stripes, each with its own lock, and the
// object's record (rows, epoch, support entry) stays in that stripe
// for its whole life, so ingest for different objects rarely contends
// and no write ever moves a record. A Snapshot holds every stripe's
// reading lock shared while a region query or heatmap collects its
// candidates: a consistent cut across the whole table.
//
// Geometry is indexed with an R-tree so containment/intersection
// queries and trigger matching stay sub-linear in table size, the role
// PostGIS's GiST indexes play in the paper's deployment. All methods
// are safe for concurrent use.
package spatialdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/rtree"
)

// Database metrics, cached once so the hot paths are pure atomics.
var (
	mInserts        = obs.Default().Counter("spatialdb_inserts_total")
	mInsertErrors   = obs.Default().Counter("spatialdb_insert_errors_total")
	mInsertUs       = obs.Default().Histogram("spatialdb_insert_us")
	mQueries        = obs.Default().Counter("spatialdb_queries_total")
	mQueryUs        = obs.Default().Histogram("spatialdb_query_us")
	mTriggerMatches = obs.Default().Counter("spatialdb_trigger_matches_total")
	mBatchInserts   = obs.Default().Counter("spatialdb_batch_inserts_total")
	mBatchRows      = obs.Default().Histogram("spatialdb_batch_rows")
	// mInsertVisits is approximate since the per-table lock split:
	// trigger matching runs under a shared lock, so concurrent searches
	// can cross-attribute Visits() deltas. The totals still converge.
	mInsertVisits = obs.Default().Counter("rtree_insert_visits_total")
	// mVisitsGauge mirrors the cumulative node visits of the object
	// index plus the trigger index; refreshed after every insert and
	// query rather than delta-tracked, because concurrent readers would
	// cross-attribute deltas.
	mVisitsGauge = obs.Default().Gauge("rtree_node_visits")
)

// syncVisitsGauge refreshes the cumulative R-tree visit gauge; safe to
// call without locks (tree visit counters are atomic).
func (db *DB) syncVisitsGauge() {
	mVisitsGauge.Set(float64(db.triggerIdx.Visits() + db.objIdx.Visits()))
}

// observeQuery records one spatial query's latency; used as
// `defer db.observeQuery(time.Now())`.
func (db *DB) observeQuery(start time.Time) {
	mQueries.Inc()
	mQueryUs.Observe(float64(time.Since(start).Microseconds()))
	db.syncVisitsGauge()
}

// Object is one row of the physical-space table (Table 1) plus the
// spatial properties of §5.1 (location, dimension, orientation and
// free-form attributes such as "power-outlets").
type Object struct {
	// GLOB names the object: GlobPrefix + ObjectIdentifier.
	GLOB glob.GLOB
	// Type is the semantic type: "Floor", "Room", "Corridor", "Door",
	// "Display", "Table", ...
	Type string
	// Kind is the geometry type (point, line, polygon).
	Kind glob.Kind
	// LocalPoints is the geometry in the coordinate frame of the
	// object's GlobPrefix, as stored in the Points column.
	LocalPoints []geom.Point
	// Bounds is the MBR of the geometry in the universe frame,
	// maintained by the database.
	Bounds geom.Rect
	// Polygon is the exact geometry in the universe frame (for
	// polygon objects); nil for points and lines.
	Polygon geom.Polygon
	// Properties holds free-form attributes used by property queries
	// ("power-outlets": "yes", "bluetooth": "high").
	Properties map[string]string
}

// ID returns the object's full GLOB string, the primary key of the
// object table.
func (o Object) ID() string { return o.GLOB.String() }

// Sentinel errors.
var (
	ErrNotFound      = errors.New("spatialdb: not found")
	ErrDuplicate     = errors.New("spatialdb: duplicate")
	ErrBadGeometry   = errors.New("spatialdb: bad geometry")
	ErrUnknownSensor = errors.New("spatialdb: unknown sensor")
	ErrBadTrigger    = errors.New("spatialdb: bad trigger")
)

// trigger is a registered spatial trigger condition.
type trigger struct {
	id string
	// mobject filters on the observed object; empty matches any.
	mobject string
	region  geom.Rect
}

// maxReadingsPerObject bounds the stored rows per mobile object; the
// newest rows are kept. 64 comfortably covers every deployed sensor
// reporting at once with history to spare.
const maxReadingsPerObject = 64

// sensorTable is the immutable sensor metadata view (§5.2). The
// current view hangs off an atomic pointer, so spec lookups on the
// ingest and locate hot paths are lock-free; registration replaces the
// whole view (sensors register at startup, effectively never after).
type sensorTable struct {
	specs map[string]model.SensorSpec
	gen   uint64
}

// DB is the spatial database: the object table, the reading table in
// stripeCount stripes keyed by object ID (see stripe), and the tables
// that are genuinely global — sensor metadata and triggers. A writer
// holds one stripe's write lock at a time; a Snapshot holds
//
//	cutTurn → stripe.readMu, every stripe's in index order
//
// objMu and trigMu are only ever held alone.
type DB struct {
	// frames is immutable after New; symbolic GLOB resolution walks
	// objects and frames together.
	frames   *coords.Tree
	universe geom.Rect

	// Object table (Table 1) and its R-tree. Writers hold objMu
	// exclusively; every object query searches the live index under
	// the read lock.
	objMu   sync.RWMutex
	objects map[string]*Object
	objIdx  *rtree.Tree[*Object]

	// stripes is the reading table, fixed at New; stripeFor picks an
	// object's stripe.
	stripes [stripeCount]*stripe

	// objGen counts object-table changes (insert/delete); readers use
	// it to detect stale cached resolutions without any lock.
	objGen atomic.Uint64

	// cutTurn lets one Snapshot be open at a time; see Snapshot.
	cutTurn sync.Mutex

	// sensorView is the current sensor metadata table; see sensorTable.
	sensorRegMu sync.Mutex
	sensorView  atomic.Pointer[sensorTable]

	// Location triggers (§5.3) and their R-tree index. Trigger regions
	// routinely span floors, so the index stays global.
	trigMu     sync.RWMutex
	triggers   map[string]*trigger
	triggerIdx *rtree.Tree[*trigger]
}

// New creates a database over the given coordinate frame tree. The
// universe rectangle (the building's floor area, the paper's U) bounds
// all geometry and probability reasoning.
func New(frames *coords.Tree, universe geom.Rect) *DB {
	db := &DB{
		frames:     frames,
		objects:    make(map[string]*Object),
		objIdx:     rtree.New[*Object](),
		triggers:   make(map[string]*trigger),
		triggerIdx: rtree.New[*trigger](),
		universe:   universe,
	}
	for i := range db.stripes {
		db.stripes[i] = newStripe(i)
	}
	db.sensorView.Store(&sensorTable{specs: make(map[string]model.SensorSpec)})
	return db
}

// Universe returns the universe rectangle.
func (db *DB) Universe() geom.Rect { return db.universe }

// Frames returns the coordinate frame tree the database resolves
// against.
func (db *DB) Frames() *coords.Tree { return db.frames }

// ---------------------------------------------------------------------------
// Object table

// InsertObject adds an object. Its geometry is resolved from the
// GlobPrefix frame into the universe frame.
func (db *DB) InsertObject(o Object) error {
	if o.GLOB.IsZero() {
		return fmt.Errorf("%w: empty GLOB", ErrBadGeometry)
	}
	if len(o.LocalPoints) == 0 {
		return fmt.Errorf("%w: object %s has no points", ErrBadGeometry, o.ID())
	}
	id := o.ID()
	db.objMu.Lock()
	defer db.objMu.Unlock()
	if _, ok := db.objects[id]; ok {
		return fmt.Errorf("%w: object %s", ErrDuplicate, id)
	}
	resolved, poly, err := db.resolveFrames(o.GLOB.Prefix(), o.LocalPoints)
	if err != nil {
		return fmt.Errorf("insert object %s: %w", id, err)
	}
	stored := o
	stored.LocalPoints = append([]geom.Point(nil), o.LocalPoints...)
	stored.Bounds = resolved
	if o.Kind == glob.KindPolygon {
		stored.Polygon = poly
	}
	if o.Properties != nil {
		props := make(map[string]string, len(o.Properties))
		for k, v := range o.Properties {
			props[k] = v
		}
		stored.Properties = props
	}
	db.objects[id] = &stored
	db.objIdx.Insert(stored.Bounds, &stored)
	db.objGen.Add(1)
	return nil
}

// resolveFrames converts local-frame points into the universe frame.
// The frame tree is immutable, so no lock is needed.
func (db *DB) resolveFrames(prefix glob.GLOB, pts []geom.Point) (geom.Rect, geom.Polygon, error) {
	frame, ok := db.frames.FrameForGLOBPath(prefix.Path)
	if !ok {
		return geom.Rect{}, nil, fmt.Errorf("no coordinate frame for prefix %q", prefix.String())
	}
	root, err := db.frames.Root(frame)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	poly, err := db.frames.ConvertPolygon(geom.Polygon(pts), frame, root)
	if err != nil {
		return geom.Rect{}, nil, err
	}
	return poly.Bounds(), poly, nil
}

// GetObject returns an object by its GLOB string.
func (db *DB) GetObject(id string) (Object, error) {
	db.objMu.RLock()
	defer db.objMu.RUnlock()
	if o, ok := db.objects[id]; ok {
		return o.clone(), nil
	}
	return Object{}, fmt.Errorf("%w: object %s", ErrNotFound, id)
}

// DeleteObject removes an object.
func (db *DB) DeleteObject(id string) error {
	db.objMu.Lock()
	defer db.objMu.Unlock()
	o, ok := db.objects[id]
	if !ok {
		return fmt.Errorf("%w: object %s", ErrNotFound, id)
	}
	db.objIdx.Delete(o.Bounds, o)
	delete(db.objects, id)
	db.objGen.Add(1)
	return nil
}

// Objects returns all objects sorted by ID.
func (db *DB) Objects() []Object {
	db.objMu.RLock()
	out := make([]Object, 0, len(db.objects))
	for _, o := range db.objects {
		out = append(out, o.clone())
	}
	db.objMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

func (o *Object) clone() Object {
	out := *o
	out.LocalPoints = append([]geom.Point(nil), o.LocalPoints...)
	out.Polygon = append(geom.Polygon(nil), o.Polygon...)
	if o.Properties != nil {
		props := make(map[string]string, len(o.Properties))
		for k, v := range o.Properties {
			props[k] = v
		}
		out.Properties = props
	}
	return out
}

// ObjectFilter narrows object queries.
type ObjectFilter struct {
	// Type restricts to a semantic type; empty matches all.
	Type string
	// Prefix restricts to objects under a GLOB prefix; zero matches
	// all.
	Prefix glob.GLOB
	// Properties lists attributes the object must carry with the given
	// values.
	Properties map[string]string
}

func (f ObjectFilter) match(o *Object) bool {
	if f.Type != "" && !strings.EqualFold(f.Type, o.Type) {
		return false
	}
	if !f.Prefix.IsZero() && !o.GLOB.HasPrefix(f.Prefix) {
		return false
	}
	for k, v := range f.Properties {
		if o.Properties[k] != v {
			return false
		}
	}
	return true
}

// VisitIntersecting calls fn for every object whose universe-frame MBR
// intersects r, under the object table's read lock and in no
// particular order. It is the object table's one range search: the
// copying queries below clone what fn keeps. fn sees the stored
// row: it must not modify o, keep the pointer, or call back into the
// DB's object table. Field values it copies out (a GLOB, a Rect) stay
// valid, because a stored row is never modified in place — an object
// is only inserted or deleted.
func (db *DB) VisitIntersecting(r geom.Rect, fn func(o *Object)) {
	defer db.observeQuery(time.Now())
	db.objMu.RLock()
	defer db.objMu.RUnlock()
	db.objIdx.SearchIntersectFunc(r, func(_ geom.Rect, o *Object) bool {
		fn(o)
		return true
	})
}

// collect clones the objects VisitIntersecting finds in r that pass
// keep and f.
func (db *DB) collect(r geom.Rect, keep func(o *Object) bool, f ObjectFilter) []Object {
	var out []Object
	db.VisitIntersecting(r, func(o *Object) {
		if keep(o) && f.match(o) {
			out = append(out, o.clone())
		}
	})
	return out
}

// IntersectingObjects returns objects whose universe-frame MBR
// intersects r, filtered, sorted by ID.
func (db *DB) IntersectingObjects(r geom.Rect, f ObjectFilter) []Object {
	out := db.collect(r, func(*Object) bool { return true }, f)
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ContainedObjects returns objects fully inside r, filtered, sorted by
// ID.
func (db *DB) ContainedObjects(r geom.Rect, f ObjectFilter) []Object {
	out := db.collect(r, func(o *Object) bool { return r.ContainsRect(o.Bounds) }, f)
	sort.Slice(out, func(i, j int) bool { return out[i].ID() < out[j].ID() })
	return out
}

// ObjectsAt returns the objects whose MBR contains the point (deepest
// GLOB first — the room before the floor).
func (db *DB) ObjectsAt(p geom.Point, f ObjectFilter) []Object {
	out := db.collect(geom.Rect{Min: p, Max: p}, func(o *Object) bool { return o.Bounds.ContainsPoint(p) }, f)
	sort.Slice(out, func(i, j int) bool {
		if d1, d2 := out[i].GLOB.Depth(), out[j].GLOB.Depth(); d1 != d2 {
			return d1 > d2
		}
		return out[i].ID() < out[j].ID()
	})
	return out
}

// Nearest answers property queries such as "the nearest region with
// power outlets and high Bluetooth signal" (§5.1): the k objects
// passing the filter closest to p, ordered by (distance, ID), nil for
// k <= 0.
func (db *DB) Nearest(p geom.Point, k int, f ObjectFilter) []Object {
	if k <= 0 {
		return nil
	}
	defer db.observeQuery(time.Now())
	type cand struct {
		obj  *Object
		dist float64
	}
	var hits []cand
	db.objMu.RLock()
	defer db.objMu.RUnlock()
	// Property predicates cannot be pushed into the R-tree, so fetch
	// nearest-first and filter, doubling the fetch until the k-th hit's
	// distance is settled: the tree is exhausted, or an item farther
	// than it was fetched, so every hit tied with it is in hand.
	for fetch := max(16, 4*k); ; fetch *= 2 {
		items := db.objIdx.Nearest(p, fetch)
		hits = hits[:0]
		for _, it := range items {
			if f.match(it.Value) {
				hits = append(hits, cand{obj: it.Value, dist: it.Rect.DistToPoint(p)})
			}
		}
		if len(items) < fetch ||
			len(hits) >= k && items[len(items)-1].Rect.DistToPoint(p) > hits[k-1].dist {
			break
		}
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		return hits[i].obj.ID() < hits[j].obj.ID()
	})
	hits = hits[:min(k, len(hits))]
	out := make([]Object, len(hits))
	for i, c := range hits {
		out[i] = c.obj.clone()
	}
	return out
}

// ResolveGLOB converts any GLOB — symbolic or coordinate — to its MBR
// in the universe frame. Symbolic GLOBs are looked up in the object
// table; coordinate GLOBs are transformed from their prefix frame.
func (db *DB) ResolveGLOB(g glob.GLOB) (geom.Rect, error) {
	if g.IsZero() {
		return geom.Rect{}, fmt.Errorf("%w: empty GLOB", ErrBadGeometry)
	}
	if g.IsCoordinate() {
		r, _, err := db.resolveFrames(g.Prefix(), g.PlanarPoints())
		return r, err
	}
	id := g.String()
	db.objMu.RLock()
	o, ok := db.objects[id]
	db.objMu.RUnlock()
	if ok {
		return o.Bounds, nil
	}
	return geom.Rect{}, fmt.Errorf("%w: symbolic location %s", ErrNotFound, id)
}

// ObjectGeneration returns a counter bumped on every object-table
// change (insert or delete). A cached symbolic resolution is still
// valid while the generation it was computed under is unchanged.
func (db *DB) ObjectGeneration() uint64 { return db.objGen.Load() }

// ---------------------------------------------------------------------------
// Triggers

// AddTrigger registers a spatial trigger: every stored reading for
// mobjectID (any object if empty) that intersects region lists id in
// its StoredReading.Triggers, which InsertReadings hands its
// Dispatcher. The trigger region is indexed so inserts stay sub-linear
// in the number of triggers.
func (db *DB) AddTrigger(id, mobjectID string, region geom.Rect) error {
	if id == "" {
		return fmt.Errorf("%w: need id", ErrBadTrigger)
	}
	if !region.Valid() || region.Area() <= 0 {
		return fmt.Errorf("%w: degenerate region %v", ErrBadTrigger, region)
	}
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	if _, ok := db.triggers[id]; ok {
		return fmt.Errorf("%w: trigger %s", ErrDuplicate, id)
	}
	tr := &trigger{id: id, mobject: mobjectID, region: region}
	db.triggers[id] = tr
	db.triggerIdx.Insert(region, tr)
	return nil
}

// RemoveTrigger unregisters a trigger.
func (db *DB) RemoveTrigger(id string) error {
	db.trigMu.Lock()
	defer db.trigMu.Unlock()
	tr, ok := db.triggers[id]
	if !ok {
		return fmt.Errorf("%w: trigger %s", ErrNotFound, id)
	}
	db.triggerIdx.Delete(tr.region, tr)
	delete(db.triggers, id)
	return nil
}

// TriggerCount returns the number of registered triggers.
func (db *DB) TriggerCount() int {
	db.trigMu.RLock()
	defer db.trigMu.RUnlock()
	return len(db.triggers)
}
