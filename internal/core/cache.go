package core

import (
	"sync"
	"time"

	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// Cache metrics, cached once so the hot paths are pure atomics.
var (
	mCacheHits     = obs.Default().Counter("core_cache_hits_total")
	mCacheMisses   = obs.Default().Counter("core_cache_misses_total")
	mSensorMemoHit = obs.Default().Counter("core_sensor_memo_hits_total")
)

// defaultCacheQuantum bounds how long a cached fused estimate may be
// served on a live clock. Epochs invalidate precisely on data change;
// the quantum only covers what epochs cannot see — temporal
// degradation (EffectiveDetectProb decays with reading age) and TTL
// expiry, both of which move on the scale of seconds to hours, so a
// quarter second of staleness is far below sensor noise.
const defaultCacheQuantum = 250 * time.Millisecond

// maxCachedObjects bounds the fused-estimate cache; at the cap an
// arbitrary entry is evicted (every entry is equally cheap to
// recompute on its next query).
const maxCachedObjects = 4096

// locEntry is one object's cached fusion state. Entries are immutable
// after publication: updates store a fresh entry, so a reader holding
// one can use it without locks. readings is shared read-only (fusion
// Build/ProbRegion copy what they keep).
type locEntry struct {
	// epoch, sensorGen and objGen are the invalidation keys: the
	// object's reading-table epoch, the sensor-table generation
	// (specs feed p_i/q_i and the classifier) and the object-table
	// generation (the symbolic region comes from it).
	epoch     uint64
	sensorGen uint64
	objGen    uint64
	// at is when the readings were evaluated; temporal degradation is
	// computed against it, so validity also requires now to stay
	// within the cache quantum of it.
	at       time.Time
	readings []fusion.Reading
	// support is fusion.SupportBounds(readings), computed once when the
	// entry is built: every region scan that hits the entry gates and
	// clips on it (DESIGN.md §17). Zero when readings is empty.
	support geom.Rect
	// hasLoc marks that loc carries the full fused location (computed
	// lazily by LocateObject; probInRect-only entries never pay for
	// the lattice).
	hasLoc bool
	// loc is the pre-privacy location; policies apply per request.
	loc Location
}

// valid reports whether the entry still reflects the database at the
// given keys and time.
func (e *locEntry) valid(epoch, sensorGen, objGen uint64, now time.Time, quantum time.Duration) bool {
	if e == nil || e.epoch != epoch || e.sensorGen != sensorGen || e.objGen != objGen {
		return false
	}
	d := now.Sub(e.at)
	return d == 0 || (d > 0 && d < quantum)
}

// supports gates the entry's live support — the bounding box of its
// TTL-filtered fusion readings — against the queried region: false when
// the object has no readings or its support does not touch the region,
// and the object contributes no mass under the support-gated semantics.
func (e *locEntry) supports(rect geom.Rect) bool {
	return len(e.readings) > 0 && e.support.Intersects(rect)
}

// locateCache maps object IDs to their cached fusion state.
type locateCache struct {
	mu      sync.RWMutex
	entries map[string]*locEntry
}

func (c *locateCache) get(id string) *locEntry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.entries[id]
}

// put stores e unless the entry already cached for id is newer: a
// higher reading epoch, or the same epoch and a higher sensor
// generation. A region scan fuses each object at its snapshot's epoch
// and may finish after a Locate stored the object's newer live state;
// replacing that would make the next Locate miss. (An epoch restarts
// lower only after a federation DropObject; the older entry then loses
// its place as soon as the object's live epoch passes it.)
func (c *locateCache) put(id string, e *locEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur, ok := c.entries[id]
	if ok && (cur.epoch > e.epoch || cur.epoch == e.epoch && cur.sensorGen > e.sensorGen) {
		return
	}
	if !ok && len(c.entries) >= maxCachedObjects {
		for k := range c.entries {
			delete(c.entries, k)
			break
		}
	}
	c.entries[id] = e
}

// cachedFusion returns the object's cache entry at the given reading
// epoch and sensor generation, serving a cached one while the keys
// prove it current and otherwise storing one built by fuse. Callers
// read the keys BEFORE the rows fuse reduces: an insert landing in
// between makes the stored entry conservatively stale (its epoch is
// already outdated), never the reverse — a cached answer can therefore
// never survive a completed newer insert for the object.
func (s *Service) cachedFusion(objectID string, epoch, sensorGen uint64, now time.Time, fuse func() []fusion.Reading) *locEntry {
	objGen := s.db.ObjectGeneration()
	if e := s.cache.get(objectID); e.valid(epoch, sensorGen, objGen, now, s.quantum) {
		mCacheHits.Inc()
		return e
	}
	mCacheMisses.Inc()
	readings := fuse()
	support, _ := fusion.SupportBounds(readings)
	e := &locEntry{
		epoch:     epoch,
		sensorGen: sensorGen,
		objGen:    objGen,
		at:        now,
		readings:  readings,
		support:   support,
	}
	s.cache.put(objectID, e)
	return e
}

// fusionState returns the object's fusion inputs at now from the live
// tables, through the cache.
func (s *Service) fusionState(objectID string, now time.Time) ([]fusion.Reading, *locEntry) {
	e := s.cachedFusion(objectID, s.db.ReadingEpoch(objectID), s.db.SensorGeneration(), now, func() []fusion.Reading {
		return s.fusionReadings(objectID, now)
	})
	return e.readings, e
}

// fusionStateSnap is fusionState evaluated for a region-scan candidate
// of a database snapshot: the rows, sensor specs, and invalidation keys
// all come from the same consistent cut, so every object evaluated
// against one snapshot sees the same set of completed insert batches.
// The candidate carries its rows and epoch from the cut, and the
// snapshot may already be closed. Live epochs only ever run ahead of a
// snapshot's, so a cached entry can validate against a snapshot only
// when the object's rows have not changed since the cut, never the
// reverse.
func (s *Service) fusionStateSnap(snap *spatialdb.Snapshot, c *spatialdb.Candidate, now time.Time) *locEntry {
	return s.cachedFusion(c.ID, c.Epoch(), snap.SensorGeneration(), now, func() []fusion.Reading {
		specs := snap.SensorSpecs()
		return fusion.FromReadings(c.LatestPerSensor(specs, now), specs, now, snap.Universe().Area())
	})
}

// sensorMemo caches the sensor-spec table copy and the §4.4
// classifier derived from it, keyed on the sensor generation so a
// locate revalidates with one atomic load instead of re-scanning the
// table.
type sensorMemo struct {
	mu    sync.RWMutex
	ok    bool
	gen   uint64
	specs map[string]model.SensorSpec
	cls   fusion.Classifier
}

// sensorView returns the current sensor specs and classifier,
// refreshing the memo only when the sensor table's generation moved.
func (s *Service) sensorView() (map[string]model.SensorSpec, fusion.Classifier) {
	gen := s.db.SensorGeneration()
	m := &s.sensors
	m.mu.RLock()
	if m.ok && m.gen == gen {
		specs, cls := m.specs, m.cls
		m.mu.RUnlock()
		mSensorMemoHit.Inc()
		return specs, cls
	}
	m.mu.RUnlock()
	specs, snapGen := s.db.SensorSnapshot()
	ps := make([]float64, 0, len(specs))
	for _, spec := range specs {
		ps = append(ps, spec.Errors.DetectProb())
	}
	cls := fusion.NewClassifier(ps)
	m.mu.Lock()
	if !m.ok || snapGen >= m.gen {
		m.ok, m.gen, m.specs, m.cls = true, snapGen, specs, cls
	}
	m.mu.Unlock()
	return specs, cls
}
