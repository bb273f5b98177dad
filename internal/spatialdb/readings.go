package spatialdb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// ---------------------------------------------------------------------------
// Sensor metadata table (§5.2)

// RegisterSensor records a sensor instance and its calibrated spec in
// the sensor metadata table. The table is copy-on-write: a new view is
// published atomically, so spec lookups on the ingest and locate paths
// never take a lock.
func (db *DB) RegisterSensor(sensorID string, spec model.SensorSpec) error {
	if sensorID == "" {
		return fmt.Errorf("%w: empty sensor id", ErrUnknownSensor)
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	db.sensorRegMu.Lock()
	defer db.sensorRegMu.Unlock()
	cur := db.sensorView.Load()
	specs := make(map[string]model.SensorSpec, len(cur.specs)+1)
	for id, s := range cur.specs {
		specs[id] = s
	}
	specs[sensorID] = spec
	db.sensorView.Store(&sensorTable{specs: specs, gen: cur.gen + 1})
	return nil
}

// SensorSpec returns the spec registered for a sensor.
func (db *DB) SensorSpec(sensorID string) (model.SensorSpec, error) {
	spec, ok := db.sensorView.Load().specs[sensorID]
	if !ok {
		return model.SensorSpec{}, fmt.Errorf("%w: %s", ErrUnknownSensor, sensorID)
	}
	return spec, nil
}

// Sensors returns the registered sensor IDs, sorted.
func (db *DB) Sensors() []string {
	specs := db.sensorView.Load().specs
	out := make([]string, 0, len(specs))
	for id := range specs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// SensorGeneration returns a counter bumped on every sensor
// registration. Callers that derive state from the whole sensor table
// (the fusion classifier, per-sensor spec lookups on the query path)
// memoize against it and revalidate with one atomic load.
func (db *DB) SensorGeneration() uint64 { return db.sensorView.Load().gen }

// SensorSnapshot returns a copy of the sensor metadata table together
// with the generation it was taken at. The copy is the caller's to
// keep; the generation lets it revalidate with one atomic load instead
// of a lock per spec lookup.
func (db *DB) SensorSnapshot() (map[string]model.SensorSpec, uint64) {
	view := db.sensorView.Load()
	out := make(map[string]model.SensorSpec, len(view.specs))
	for id, spec := range view.specs {
		out[id] = spec
	}
	return out, view.gen
}

// ---------------------------------------------------------------------------
// Reading table (Table 2)

// StoredReading is one reading an InsertReadings call stored, as its
// own insert left the object: a consumer that reads it sees exactly
// what a single InsertReading of that reading would have shown,
// whatever the rest of the batch did.
type StoredReading struct {
	// Reading is the stored reading, its region resolved.
	Reading model.Reading
	// Rows is the object's stored rows right after Reading was
	// appended: the live slice header, shared without a copy (readTable
	// guarantees no slot it covers is ever rewritten). It must not be
	// appended to or modified.
	Rows []model.Reading
	// Epoch is the object's reading epoch at the same moment, the
	// cache key of a fusion result derived from Rows.
	Epoch uint64
	// Triggers are the IDs of the triggers Reading matched.
	Triggers []string
	// prev is the object's rows just before Reading's append and the
	// ring trim, shared like Rows (readTable).
	prev []model.Reading
}

// LatestPerSensor reduces Rows to the fusion working set at now, as
// DB.LatestPerSensor does for the live rows: the newest unexpired row
// per sensor registered in specs, sorted by sensor ID.
func (ev *StoredReading) LatestPerSensor(specs map[string]model.SensorSpec, now time.Time) []model.Reading {
	out, _ := latestRows(ev.Rows, specs, now)
	return out
}

// HadLiveRows reports whether any of the object's rows as they stood
// just before Reading's append was unexpired at now under specs.
func (ev *StoredReading) HadLiveRows(specs map[string]model.SensorSpec, now time.Time) bool {
	for i := len(ev.prev) - 1; i >= 0; i-- {
		r := &ev.prev[i]
		if spec, ok := specs[r.SensorID]; ok && !r.Expired(now, spec.TTL) {
			return true
		}
	}
	return false
}

// Dispatcher consumes an InsertReadings call's stored readings, one
// entry per stored reading in submission order. It is called once per
// call that stored anything, after all table locks are released, and
// must finish with every entry before returning. A dispatcher may
// parallelize across mobile objects but should keep each object's
// entries in order (entry/exit edge detection depends on it). It is
// the only way a stored reading reaches a consumer: an insert with a
// nil Dispatcher delivers nothing.
type Dispatcher func([]StoredReading)

// RejectedError reports the readings of an insert that failed
// validation (unknown sensor, missing mobject id, unresolvable
// location). It covers only the rejected readings: the rest of the
// batch was stored, so re-submitting the whole batch would duplicate
// the stored rows. Callers that retry (the resilient adapter sink, a
// remote client) must retry only the listed indices.
type RejectedError struct {
	// Indices are the rejected readings' positions in the submitted
	// slice, ascending.
	Indices []int
	// Errs holds the per-reading failures, parallel to Indices.
	Errs []error
}

func (e *RejectedError) Error() string {
	if len(e.Errs) == 1 {
		return e.Errs[0].Error()
	}
	return fmt.Sprintf("spatialdb: %d readings rejected: %v", len(e.Errs), errors.Join(e.Errs...))
}

// Unwrap exposes the per-reading failures to errors.Is / errors.As.
func (e *RejectedError) Unwrap() []error { return e.Errs }

// InsertReading stores a sensor reading (resolving its location to a
// universe-frame MBR if the adapter has not already). The sensor must
// be registered. It inserts with a nil Dispatcher, so the stored
// reading reaches no consumer: no trigger, subscription or history
// sees it. Readings for a Location Service go in through its Ingest,
// which inserts with the service's own Dispatcher.
func (db *DB) InsertReading(r model.Reading) error {
	_, err := db.InsertReadings([]model.Reading{r}, nil)
	return err
}

// InsertReadings stores a slice of readings with one lock acquisition
// per target stripe instead of one per reading, amortizing the
// hot-path cost for batched adapters. Readings that fail validation
// are skipped; the rest are stored. It returns the number stored and,
// when any reading was skipped, a *RejectedError naming the skipped
// indices — never retry the whole batch on that error, the other rows
// are already in the table.
//
// Readings group by their object's stripe, and each group is stored
// under that stripe's write lock alone, one group at a time in order of
// first appearance, so batches for objects in different stripes ingest
// in parallel. A Snapshot therefore sees a batch as a prefix of its
// stripe groups (see Snapshot): a batch whose objects share one stripe
// entirely or not at all.
//
// Every stored reading, with its rows, epoch and matched triggers, is
// then handed to dispatch (see StoredReading). With a nil dispatch the
// stored readings reach no consumer: the matched trigger IDs are
// computed and dropped.
func (db *DB) InsertReadings(rs []model.Reading, dispatch Dispatcher) (int, error) {
	if len(rs) == 0 {
		return 0, nil
	}
	start := time.Now()

	// Phase 1 — validate and resolve regions. Sensor specs come from
	// the lock-free view; symbolic locations resolve against the object
	// table.
	sensors := db.sensorView.Load().specs
	stored := make([]StoredReading, 0, len(rs))
	var errs []error
	var rejected []int
	for i, r := range rs {
		if r.MObjectID == "" {
			mInsertErrors.Inc()
			rejected = append(rejected, i)
			errs = append(errs, fmt.Errorf("spatialdb: reading without mobject id"))
			continue
		}
		spec, ok := sensors[r.SensorID]
		if !ok {
			mInsertErrors.Inc()
			rejected = append(rejected, i)
			errs = append(errs, fmt.Errorf("%w: %s", ErrUnknownSensor, r.SensorID))
			continue
		}
		if r.SensorType == "" {
			r.SensorType = spec.Type
		}
		if !r.Region.Valid() || r.Region.Area() == 0 {
			rect, err := db.resolveReading(r, spec)
			if err != nil {
				mInsertErrors.Inc()
				rejected = append(rejected, i)
				errs = append(errs, fmt.Errorf("insert reading from %s: %w", r.SensorID, err))
				continue
			}
			r.Region = rect
		}
		stored = append(stored, StoredReading{Reading: r})
	}

	// Group the prepared readings by stripe, in order of first
	// appearance: each object's readings fall in one group, in
	// submission order.
	type stripeGroup struct {
		sh   *stripe
		idxs []int
	}
	var groups []*stripeGroup
	var byStripe [stripeCount]*stripeGroup
	for i := range stored {
		si := stripeOf(stored[i].Reading.MObjectID)
		g := byStripe[si]
		if g == nil {
			g = &stripeGroup{sh: db.stripes[si]}
			byStripe[si] = g
			groups = append(groups, g)
		}
		g.idxs = append(g.idxs, i)
	}

	// Phase 2 — store each group under its own stripe's write lock:
	// movement detection, append, bound, and the per-object epoch bump
	// that invalidates fused-location caches.
	for _, g := range groups {
		sh := g.sh
		sh.readMu.Lock()
		t := sh.table
		for _, i := range g.idxs {
			r := &stored[i].Reading
			o := t.rec(r.MObjectID)
			prev := o.rows
			rows := prev
			// Movement detection: compare with the previous reading
			// from the same sensor for the same object.
			for j := len(rows) - 1; j >= 0; j-- {
				if rows[j].SensorID == r.SensorID {
					if !rows[j].Region.Eq(r.Region) {
						r.Moving = true
					}
					break
				}
			}
			// Bound per-object storage: long-TTL sensors (desktop
			// sessions, biometric long readings) must not accumulate
			// without limit. The newest rows win; fusion only consumes
			// the latest row per sensor anyway. The slice trims as a ring
			// buffer: re-slicing off the head is O(1) and the append below
			// reuses the backing array's spare capacity, re-basing (one
			// O(cap) copy into a new array) only every ~cap inserts.
			// Neither step touches a row a held header covers
			// (readTable).
			if len(rows) >= maxReadingsPerObject {
				rows = rows[len(rows)-maxReadingsPerObject+1:]
			}
			o.rows = append(rows, *r)
			o.epoch++
			stored[i].Rows, stored[i].Epoch, stored[i].prev = o.rows, o.epoch, prev
			// The support stays a conservative superset: union-only
			// growth while the object stays on its floor, an exact
			// recompute from the rows when this reading changes the floor
			// of its newest row, so a walker's support does not keep
			// every floor it crossed (DESIGN.md §17).
			if len(prev) > 0 && !sameFloor(prev[len(prev)-1].Location, r.Location) {
				t.resetSupport(o)
			} else {
				t.growSupport(o, r.Region)
			}
		}
		sh.writeEpoch.Add(1)
		sh.readMu.Unlock()
		sh.inserts.Add(uint64(len(g.idxs)))
		sh.mInserts.Add(uint64(len(g.idxs)))
	}

	// Phase 3 — match triggers for the whole batch under the shared
	// trigger lock; dispatch happens after release.
	visits0 := db.triggerIdx.Visits()
	matches := 0
	db.trigMu.RLock()
	for i := range stored {
		ev := &stored[i]
		db.triggerIdx.SearchIntersectFunc(ev.Reading.Region, func(_ geom.Rect, tr *trigger) bool {
			if tr.mobject == "" || tr.mobject == ev.Reading.MObjectID {
				ev.Triggers = append(ev.Triggers, tr.id)
				matches++
			}
			return true
		})
	}
	visitDelta := db.triggerIdx.Visits() - visits0
	db.trigMu.RUnlock()

	// The db_insert stage ends here: storage and trigger matching are
	// done; what dispatch does is accounted to the downstream stages.
	mInsertVisits.Add(uint64(visitDelta))
	db.syncVisitsGauge()
	mInsertUs.Observe(float64(time.Since(start).Microseconds()))
	mInserts.Add(uint64(len(stored)))
	mTriggerMatches.Add(uint64(matches))
	if len(rs) > 1 {
		mBatchInserts.Inc()
		mBatchRows.Observe(float64(len(rs)))
	}
	for i := range stored {
		obs.SpanSince(stored[i].Reading.Trace, "db_insert", start)
	}

	if len(stored) > 0 && dispatch != nil {
		dispatch(stored)
	}
	if len(errs) > 0 {
		return len(stored), &RejectedError{Indices: rejected, Errs: errs}
	}
	return len(stored), nil
}

// ReadingEpoch returns the object's reading-table epoch — a counter
// bumped whenever the object's stored rows change in a way that can
// change query results. An unchanged epoch means a cached fusion
// result for the object is still derived from the current rows. The
// counter lives in the object's record, which never leaves its stripe,
// and strictly increases until DropObject removes the record.
func (db *DB) ReadingEpoch(mobjectID string) uint64 {
	sh := db.stripeFor(mobjectID)
	sh.readMu.RLock()
	e := sh.table.epochOf(mobjectID)
	sh.readMu.RUnlock()
	return e
}

// resolveReading computes the reading's universe-frame MBR from its
// GLOB location and detection radius.
func (db *DB) resolveReading(r model.Reading, spec model.SensorSpec) (geom.Rect, error) {
	if r.Location.IsZero() {
		return geom.Rect{}, fmt.Errorf("%w: reading has no location", ErrBadGeometry)
	}
	if r.Location.IsCoordinate() {
		// A coordinate resolves through the longest known frame prefix,
		// so a floor the building lacks ("CS/F9/(5,5)" on a building
		// with CS/Floor3 alone) would land in the building frame. The
		// route lookup tells whether the floor is a frame; the object
		// table is asked only when it is not.
		rect, floorFrame, err := db.resolveCoords(r.Location)
		if path := r.Location.Path; len(path) > 0 && !floorFrame {
			if _, ok := db.objectAt(path[:min(len(path), 2)]); !ok {
				return geom.Rect{}, fmt.Errorf("%w: floor %s of %s is neither a frame nor an object",
					ErrNotFound, ShardKeyForGLOB(r.Location), r.Location)
			}
		}
		if err != nil {
			return geom.Rect{}, err
		}
		radius := r.DetectionRadius
		if radius == 0 && spec.Resolution.Kind == model.ResolutionDistance {
			radius = spec.Resolution.Radius
		}
		return rect.Expand(radius), nil
	}
	return db.ResolveGLOB(r.Location)
}

// ReadingsFor returns the unexpired readings for a mobile object at
// time now, applying each sensor's TTL from the metadata table.
// Expired rows are pruned as a side effect. Pruning does not bump the
// object's reading epoch: the removed rows were already invisible to
// every TTL-filtered query, so cached results stay correct.
func (db *DB) ReadingsFor(mobjectID string, now time.Time) []model.Reading {
	specs := db.sensorView.Load().specs
	// Fast path under the shared lock: concurrent locates for different
	// objects in the same stripe must not serialize here. Only when a
	// row has actually expired is the exclusive lock taken to prune.
	sh := db.stripeFor(mobjectID)
	sh.readMu.RLock()
	rows := sh.table.rowsOf(mobjectID)
	if len(rows) == 0 {
		sh.readMu.RUnlock()
		return nil
	}
	live := make([]model.Reading, 0, len(rows))
	for _, r := range rows {
		if spec, ok := specs[r.SensorID]; ok && !r.Expired(now, spec.TTL) {
			live = append(live, r)
		}
	}
	sh.readMu.RUnlock()
	if len(live) == len(rows) {
		return live
	}
	return db.pruneReadings(mobjectID, specs, now)
}

// pruneReadings drops the object's rows that are expired at now or
// have no registered sensor and returns a copy of the survivors — the
// exclusive-lock half of ReadingsFor, for a caller that has already
// seen such a row under the shared lock.
func (db *DB) pruneReadings(mobjectID string, specs map[string]model.SensorSpec, now time.Time) []model.Reading {
	sh := db.stripeFor(mobjectID)
	sh.readMu.Lock()
	defer sh.readMu.Unlock()
	// Recompute: the rows may have changed since the shared lock.
	t := sh.table
	o := t.objs[mobjectID]
	if o == nil {
		return nil
	}
	live := make([]model.Reading, 0, len(o.rows))
	for _, r := range o.rows {
		if spec, ok := specs[r.SensorID]; ok && !r.Expired(now, spec.TTL) {
			live = append(live, r)
		}
	}
	if len(live) == len(o.rows) {
		// Someone else pruned in between: nothing to write.
		return live
	}
	// The record, and with it the epoch, stays (readTable.objs).
	o.rows = nil
	if len(live) > 0 {
		o.rows = append([]model.Reading(nil), live...)
	}
	// Pruning is where the conservative support rect snaps back to
	// exact: recompute it from the surviving rows.
	t.resetSupport(o)
	return live
}

// LatestPerSensor returns, for each sensor that has an unexpired
// reading for the object, only its newest one — the working set for
// fusion. The stored rows are reduced in place under the shared stripe
// lock; only when the pass meets an expired row does it prune, and
// reduce the survivors instead.
func (db *DB) LatestPerSensor(mobjectID string, now time.Time) []model.Reading {
	specs := db.sensorView.Load().specs
	sh := db.stripeFor(mobjectID)
	sh.readMu.RLock()
	out, stale := latestRows(sh.table.rowsOf(mobjectID), specs, now)
	sh.readMu.RUnlock()
	if stale {
		out, _ = latestRows(db.pruneReadings(mobjectID, specs, now), specs, now)
	}
	return out
}

// latestRows reduces an object's stored rows to the newest unexpired
// row per registered sensor, sorted by sensor ID (shared by the live
// path, Candidate and StoredReading). Of two rows with equal times the
// earlier-stored wins. stale reports that some row was expired or had
// no spec — what ReadingsFor would prune. One pass, copying only the
// winners: an object reports through a handful of sensors, so the
// winners are tracked as row indices in a small stack-backed slice.
func latestRows(rows []model.Reading, specs map[string]model.SensorSpec, now time.Time) (out []model.Reading, stale bool) {
	var buf [8]int
	win := buf[:0]
	var (
		spec model.SensorSpec
		ok   bool
		last string
	)
	for i := range rows {
		r := &rows[i]
		// Consecutive rows mostly share a sensor: look the spec up once
		// per run.
		if i == 0 || r.SensorID != last {
			last = r.SensorID
			spec, ok = specs[last]
		}
		if !ok || r.Expired(now, spec.TTL) {
			stale = true
			continue
		}
		k := 0
		for k < len(win) && rows[win[k]].SensorID != r.SensorID {
			k++
		}
		switch {
		case k == len(win):
			win = append(win, i)
		case r.Time.After(rows[win[k]].Time):
			win[k] = i
		}
	}
	if len(win) == 0 {
		return nil, stale
	}
	// Insertion sort by sensor ID; IDs in win are distinct.
	for i := 1; i < len(win); i++ {
		for j := i; j > 0 && rows[win[j]].SensorID < rows[win[j-1]].SensorID; j-- {
			win[j], win[j-1] = win[j-1], win[j]
		}
	}
	out = make([]model.Reading, len(win))
	for i, w := range win {
		out[i] = rows[w]
	}
	return out, stale
}

// MobileObjects returns the IDs of all objects with stored readings,
// sorted.
func (db *DB) MobileObjects() []string {
	var out []string
	for _, sh := range db.stripes {
		sh.readMu.RLock()
		for id, o := range sh.table.objs {
			if len(o.rows) > 0 {
				out = append(out, id)
			}
		}
		sh.readMu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// ExpireReadings removes every reading for every object that has
// outlived its sensor's TTL at time now, and expires readings matching
// the filter immediately (used by the biometric logout flow, §6.3).
// Objects that lose a not-yet-expired row through the filter get their
// reading epoch bumped: the forced expiry changes query results, so
// cached fusion state for them must be invalidated. Each stripe
// expires under its own lock, so writers to other stripes keep going.
func (db *DB) ExpireReadings(now time.Time, match func(model.Reading) bool) {
	specs := db.sensorView.Load().specs
	for _, sh := range db.stripes {
		// Each stripe's sweep runs under its write lock, so a
		// concurrent cut sees the whole stripe's expiry or none of it.
		sh.readMu.Lock()
		t := sh.table
		changed := false
		for _, o := range t.objs {
			var live []model.Reading
			forced := false
			for _, r := range o.rows {
				spec, ok := specs[r.SensorID]
				if !ok || r.Expired(now, spec.TTL) {
					continue
				}
				if match != nil && match(r) {
					forced = true
					continue
				}
				live = append(live, r)
			}
			if !forced && len(live) == len(o.rows) {
				continue
			}
			// A record left with no rows keeps its epoch
			// (readTable.objs).
			o.rows = live
			t.resetSupport(o)
			if forced {
				o.epoch++
			}
			changed = true
		}
		if changed {
			sh.writeEpoch.Add(1)
		}
		sh.readMu.Unlock()
	}
}
