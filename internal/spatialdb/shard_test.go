package spatialdb

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/coords"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// multiFloorDB builds a DB with `floors` stacked floor frames
// (CS/Floor1..CS/FloorN), each 500x100, stacked northward.
func multiFloorDB(t testing.TB, floors int) *DB {
	t.Helper()
	tr := coords.NewTree()
	if err := tr.AddRoot("CS"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= floors; i++ {
		name := fmt.Sprintf("CS/Floor%d", i)
		off := coords.Transform{Origin: geom.Pt(0, float64(i-1)*100), Scale: 1}
		if err := tr.AddFrame(name, "CS", off); err != nil {
			t.Fatal(err)
		}
	}
	return New(tr.Routes(), geom.R(0, 0, 500, float64(floors)*100))
}

// longSpec is a sensor spec whose readings effectively never expire,
// so concurrency tests are not racing TTLs.
func longSpec() model.SensorSpec {
	return model.SensorSpec{
		Type:       model.TypeUbisense,
		Errors:     model.ErrorModel{X: 0.9, Y: 0.95, Z: 0.05},
		Resolution: model.DistanceResolution(0.5),
		TTL:        24 * time.Hour,
	}
}

func floorReading(sensor, object string, floor int, x, y float64, at time.Time) model.Reading {
	return model.Reading{
		SensorID:  sensor,
		MObjectID: object,
		Location:  glob.MustParse(fmt.Sprintf("CS/Floor%d/(%g,%g)", floor, x, y)),
		Time:      at,
	}
}

func TestShardKeyForGLOB(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"CS/Floor3/NetLab", "CS/Floor3"},
		{"CS/Floor3", "CS/Floor3"},
		{"CS", "CS"},
		{"CS/Floor3/(5,22)", "CS/Floor3"},
		{"CS/(5,22)", "CS"},
		{"(5,22)", "(root)"},
	}
	for _, c := range cases {
		g := glob.MustParse(c.in)
		if got := ShardKeyForGLOB(g); got != c.want {
			t.Errorf("ShardKeyForGLOB(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestShardRoutingAndStats(t *testing.T) {
	db := multiFloorDB(t, 3)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 3; f++ {
		err := db.InsertObject(Object{
			GLOB: glob.MustParse(fmt.Sprintf("CS/Floor%d/room", f)),
			Type: "Room", Kind: glob.KindPolygon,
			LocalPoints: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < f; i++ { // floor k gets k readings
			obj := fmt.Sprintf("p%d-%d", f, i)
			if err := db.InsertReading(floorReading("s1", obj, f, 5, 5, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each object's readings are counted in its stripe alone.
	want := make([]int, stripeCount)
	for f := 1; f <= 3; f++ {
		for i := 0; i < f; i++ {
			want[stripeOf(fmt.Sprintf("p%d-%d", f, i))]++
		}
	}
	stats := db.ShardStats()
	if len(stats) != stripeCount {
		t.Fatalf("stripes = %+v", stats)
	}
	for i, st := range stats {
		if wantKey := fmt.Sprintf("%02d", i); st.Key != wantKey {
			t.Errorf("stats[%d].Key = %q, want %q (stats must list stripes in order)", i, st.Key, wantKey)
		}
		if st.MobileObjects != want[i] || st.Readings != want[i] || st.Inserts != uint64(want[i]) {
			t.Errorf("stripe %s: mobile=%d readings=%d inserts=%d, want %d each",
				st.Key, st.MobileObjects, st.Readings, st.Inserts, want[i])
		}
		if (st.Epoch == 0) != (want[i] == 0) {
			t.Errorf("stripe %s: write epoch %d after %d inserts", st.Key, st.Epoch, want[i])
		}
	}
	// Global views still union the stripes.
	if got := len(db.MobileObjects()); got != 6 {
		t.Errorf("MobileObjects = %d, want 6", got)
	}
	if got := len(db.Objects()); got != 3 {
		t.Errorf("Objects = %d, want 3", got)
	}
}

// TestFloorMigrationKeepsEpochMonotonic walks an object from floor 1
// to 2, back, and up again. Its record never leaves its stripe, its rows
// follow it, and its epoch strictly rises with every floor change: a
// cached fusion result keyed on an earlier epoch must read as stale.
func TestFloorMigrationKeepsEpochMonotonic(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSensor("s2", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "walker", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	e := db.ReadingEpoch("walker")
	if e == 0 {
		t.Fatal("epoch zero after first insert")
	}
	rec := db.stripeFor("walker").table.objs["walker"]
	for k, floor := range []int{2, 1, 2} {
		if err := db.InsertReading(floorReading("s2", "walker", floor, 5, 5, t0.Add(time.Duration(k+1)*time.Second))); err != nil {
			t.Fatal(err)
		}
		next := db.ReadingEpoch("walker")
		if next <= e {
			t.Errorf("epoch after the move to floor %d = %d, want > %d", floor, next, e)
		}
		e = next
		if db.stripeFor("walker").table.objs["walker"] != rec {
			t.Fatalf("the move to floor %d replaced the object's record", floor)
		}
	}
	if rows := db.ReadingsFor("walker", t0.Add(3*time.Second)); len(rows) != 4 {
		t.Fatalf("rows after the moves = %v", rows)
	}
	for i, st := range db.ShardStats() {
		want := 0
		if i == stripeOf("walker") {
			want = 1
		}
		if st.MobileObjects != want {
			t.Errorf("stripe %s holds %d mobile objects, want %d", st.Key, st.MobileObjects, want)
		}
	}
	if got := db.LocalShardKeys(); !reflect.DeepEqual(got, []string{"CS/Floor2"}) {
		t.Errorf("LocalShardKeys = %v, want the newest row's floor [CS/Floor2]", got)
	}
}

// TestSnapshotIsImmutableCut: what a cut collected never changes.
// Candidates taken before Close keep their rows and epoch through
// later inserts, a new object and a forced expiry, while the live
// table moves on.
func TestSnapshotIsImmutableCut(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "anna", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	all := snap.MobileObjects()
	snap.Close()
	if len(all) != 1 || all[0].ID != "anna" {
		t.Fatalf("snapshot MobileObjects = %v, want [anna]", all)
	}
	anna := all[0]
	rowsAtCut := append([]model.Reading(nil), anna.rows...)
	epochAtCut := anna.Epoch()

	// Mutate after the cut: new rows for anna, a brand-new object on
	// the other floor, and a forced expiry.
	if err := db.InsertReading(floorReading("s1", "anna", 1, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "bob", 2, 5, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	db.ExpireReadings(t0.Add(2*time.Second), func(r model.Reading) bool { return r.MObjectID == "anna" })

	if len(rowsAtCut) != 1 || !reflect.DeepEqual(anna.rows, rowsAtCut) {
		t.Errorf("collected rows for anna = %v, want the 1 pre-cut row %v", anna.rows, rowsAtCut)
	}
	if got := anna.LatestPerSensor(snap.SensorSpecs(), t0); len(got) != 1 || !got[0].Time.Equal(t0) {
		t.Errorf("collected latest rows for anna = %v, want the pre-cut row", got)
	}
	if got := anna.Epoch(); got != epochAtCut {
		t.Errorf("collected epoch moved: %d -> %d", epochAtCut, got)
	}
	// The live table moved on.
	if got := db.ReadingsFor("anna", t0.Add(2*time.Second)); len(got) != 0 {
		t.Errorf("live rows for anna after forced expiry = %v", got)
	}
	if got := db.MobileObjects(); !reflect.DeepEqual(got, []string{"bob"}) {
		t.Errorf("live MobileObjects = %v, want [bob]", got)
	}
	if db.ReadingEpoch("anna") <= epochAtCut {
		t.Error("live epoch must run ahead of the snapshot's after mutation")
	}
}

// TestSnapshotBatchAtomicity is the snapshot-isolation stress test: a
// region query (or any snapshot reader) racing batched ingest must see
// none or all of each InsertReadings batch per object, never a torn
// prefix. Run under -race.
func TestSnapshotBatchAtomicity(t *testing.T) {
	const (
		floors    = 3
		batchLen  = 4 // readings per object per batch
		batches   = 12
		objPerFlr = 2
	)
	// batchLen*batches stays under maxReadingsPerObject so trimming
	// never disturbs the row-count invariant the test asserts.
	if batchLen*batches >= maxReadingsPerObject {
		t.Fatal("test misconfigured: trimming would break the invariant")
	}
	db := multiFloorDB(t, floors)
	for s := 0; s < batchLen; s++ {
		if err := db.RegisterSensor(fmt.Sprintf("s%d", s), longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	var objects []string
	for f := 1; f <= floors; f++ {
		for o := 0; o < objPerFlr; o++ {
			objects = append(objects, fmt.Sprintf("obj-%d-%d", f, o))
		}
	}

	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	var torn atomic.Int64
	// Writers: one per object, each submitting `batches` batches of
	// batchLen readings.
	for f := 1; f <= floors; f++ {
		for o := 0; o < objPerFlr; o++ {
			f, obj := f, fmt.Sprintf("obj-%d-%d", f, o)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					batch := make([]model.Reading, batchLen)
					for s := 0; s < batchLen; s++ {
						batch[s] = floorReading(fmt.Sprintf("s%d", s), obj, f,
							float64(b), float64(s), t0.Add(time.Duration(b)*time.Millisecond))
					}
					if n, err := db.InsertReadings(batch, nil); err != nil || n != batchLen {
						t.Errorf("insert batch: n=%d err=%v", n, err)
						return
					}
				}
			}()
		}
	}
	// Readers: snapshot continuously and assert every object's visible
	// row count is a whole number of batches.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				snap := db.Snapshot()
				for _, obj := range objects {
					if n := len(snapLive(snap, obj, t0)); n%batchLen != 0 {
						torn.Add(1)
						t.Errorf("snapshot saw %d rows for %s: partial batch visible", n, obj)
						snap.Close()
						return
					}
				}
				snap.Close()
			}
		}()
	}
	// Let writers finish, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(stopReaders)
	}()
	<-done
	select {
	case <-stopReaders:
	default:
		close(stopReaders)
	}
	if torn.Load() != 0 {
		t.Fatalf("%d torn snapshots observed", torn.Load())
	}
	// Every batch eventually landed.
	final := db.Snapshot()
	defer final.Close()
	for _, obj := range objects {
		if n := len(snapLive(final, obj, t0)); n != batchLen*batches {
			t.Errorf("%s: final rows = %d, want %d", obj, n, batchLen*batches)
		}
	}
}

// TestCrossShardQueriesDuringObjectWrites runs every object query
// against the live object index while other goroutines insert and
// delete objects on every floor. Each result must be sorted without a
// duplicate ID, and the objects that exist for the whole run must
// always be found.
func TestCrossShardQueriesDuringObjectWrites(t *testing.T) {
	const floors, writes = 4, 150
	db := multiFloorDB(t, floors)
	room := func(id string, x float64) Object {
		return Object{
			GLOB: glob.MustParse(id), Type: "Room", Kind: glob.KindPolygon,
			LocalPoints: []geom.Point{
				{X: x, Y: 0}, {X: x + 20, Y: 0}, {X: x + 20, Y: 20}, {X: x, Y: 20},
			},
		}
	}
	var stable []string
	for f := 1; f <= floors; f++ {
		for r := 0; r < 3; r++ {
			id := fmt.Sprintf("CS/Floor%d/room%d", f, r)
			if err := db.InsertObject(room(id, float64(r*30))); err != nil {
				t.Fatal(err)
			}
			stable = append(stable, id)
		}
	}
	region := geom.R(0, 0, 500, 400) // spans every floor
	probe := geom.Pt(10, 110)        // inside CS/Floor2/room0
	const probeRoom = "CS/Floor2/room0"

	// checkIDs reports an unsorted or duplicated result and whether
	// every stable object is in it.
	checkIDs := func(what string, got []Object, less func(a, b Object) bool, want []string) {
		seen := make(map[string]bool, len(got))
		for i, o := range got {
			if seen[o.ID()] {
				t.Errorf("%s: duplicate %s", what, o.ID())
			}
			seen[o.ID()] = true
			if i > 0 && less(o, got[i-1]) {
				t.Errorf("%s: %s sorted after %s", what, o.ID(), got[i-1].ID())
			}
		}
		for _, id := range want {
			if !seen[id] {
				t.Errorf("%s: stable object %s missing", what, id)
			}
		}
	}
	byID := func(a, b Object) bool { return a.ID() < b.ID() }
	byDepth := func(a, b Object) bool {
		if d1, d2 := a.GLOB.Depth(), b.GLOB.Depth(); d1 != d2 {
			return d1 > d2
		}
		return a.ID() < b.ID()
	}
	byDist := func(a, b Object) bool {
		if d1, d2 := a.Bounds.DistToPoint(probe), b.Bounds.DistToPoint(probe); d1 != d2 {
			return d1 < d2
		}
		return a.ID() < b.ID()
	}

	stop := make(chan struct{})
	var writers, readers sync.WaitGroup
	// Writers: transient rooms east of the stable ones, on every floor.
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < writes; i++ {
				id := fmt.Sprintf("CS/Floor%d/tmp%d-%d", 1+i%floors, w, i)
				if err := db.InsertObject(room(id, float64(200+w*30))); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 {
					if err := db.DeleteObject(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				checkIDs("Objects", db.Objects(), byID, stable)
				checkIDs("IntersectingObjects", db.IntersectingObjects(region, ObjectFilter{}), byID, stable)
				checkIDs("ObjectsAt", db.ObjectsAt(probe, ObjectFilter{}), byDepth, []string{probeRoom})
				checkIDs("Nearest", db.Nearest(probe, 3, ObjectFilter{}), byDist, []string{probeRoom})
				for _, id := range stable {
					if _, err := db.GetObject(id); err != nil {
						t.Errorf("GetObject(%s): %v", id, err)
					}
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// Odd writes were deleted again; the even ones remain.
	if got, want := len(db.Objects()), len(stable)+2*writes/2; got != want {
		t.Errorf("objects after the run = %d, want %d", got, want)
	}
}

// TestShardMetricNamesStable pins the registry names the stripe layer
// exposes: dashboards and the mwctl stats surface key on these
// strings, so a rename is a breaking change and must fail here first.
func TestShardMetricNamesStable(t *testing.T) {
	if got := obs.LabeledName("spatialdb_shard_inserts_total", "shard", "CS/Floor3"); got != `spatialdb_shard_inserts_total{shard="CS/Floor3"}` {
		t.Errorf("LabeledName = %q", got)
	}
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	key := db.stripeFor("m").key
	before := obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", key)).Value()
	if err := db.InsertReading(floorReading("s1", "m", 2, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	db.Snapshot().Close()
	snap := obs.Default().Snapshot()
	names := make(map[string]bool)
	for _, c := range snap.Counters {
		names[c.Name] = true
	}
	for _, g := range snap.Gauges {
		names[g.Name] = true
	}
	for _, want := range []string{
		"spatialdb_snapshots_total",
		"spatialdb_snapshot_pool_live",
		`spatialdb_shard_inserts_total{shard="` + key + `"}`,
	} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	after := obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", key)).Value()
	if after != before+1 {
		t.Errorf("per-shard insert counter moved %d -> %d, want +1", before, after)
	}
}

// TestInventedFloorRejected: a coordinate reading resolves through the
// longest known frame prefix, so one at a floor the building lacks
// would land in the building frame. Its top-two path prefix must name
// a frame or an object; otherwise the reading is rejected, counted in
// spatialdb_insert_errors_total, and the rest of the batch stored.
func TestInventedFloorRejected(t *testing.T) {
	db := multiFloorDB(t, 1)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	// A wing object directly under the building frame: its name is a
	// top-two prefix with no frame of its own.
	if err := db.InsertObject(Object{
		GLOB: glob.MustParse("CS/Wing"), Type: "Room", Kind: glob.KindPolygon,
		LocalPoints: []geom.Point{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 10}, {X: 0, Y: 10}},
	}); err != nil {
		t.Fatal(err)
	}
	errs0 := mInsertErrors.Value()
	var batch []model.Reading
	for _, loc := range []string{"CS/Floor1/(5,5)", "CS/F9/(5,5)", "CS/(5,5)", "CS/Wing/(5,5)", "CS/Floor9/NetLab/(1,1)"} {
		batch = append(batch, model.Reading{SensorID: "s1", MObjectID: "m", Location: glob.MustParse(loc), Time: t0})
	}
	n, err := db.InsertReadings(batch, nil)
	var rej *RejectedError
	if !errors.As(err, &rej) || !reflect.DeepEqual(rej.Indices, []int{1, 4}) {
		t.Fatalf("InsertReadings: n=%d err=%v, want indices 1 and 4 rejected", n, err)
	}
	if n != 3 || !errors.Is(err, ErrNotFound) {
		t.Errorf("stored %d readings, err %v; want 3 and ErrNotFound", n, err)
	}
	if got := mInsertErrors.Value() - errs0; got != 2 {
		t.Errorf("spatialdb_insert_errors_total moved by %d, want 2", got)
	}
	if got := db.LocalShardKeys(); !reflect.DeepEqual(got, []string{"CS/Wing"}) {
		t.Errorf("LocalShardKeys = %v, want the newest stored row's floor [CS/Wing]", got)
	}
}

// TestInventedFloorsAddNoSeries: a run of readings at invented floors
// leaves /metrics with the series it had. The stripe count bounds the
// per-stripe label set, and each rejection counts on the one existing
// error counter.
func TestInventedFloorsAddNoSeries(t *testing.T) {
	db := multiFloorDB(t, 1)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	insert := func(loc string) error {
		return db.InsertReading(model.Reading{SensorID: "s1", MObjectID: loc, Location: glob.MustParse(loc), Time: t0})
	}
	// Warm-up: one stored and one rejected reading register whatever
	// the insert path registers lazily.
	if err := insert("CS/Floor1/(5,5)"); err != nil {
		t.Fatal(err)
	}
	if err := insert("CS/F0/(5,5)"); err == nil {
		t.Fatal("a reading at an invented floor was stored")
	}
	series := func() []string {
		snap := obs.Default().Snapshot()
		var out []string
		for _, c := range snap.Counters {
			out = append(out, c.Name)
		}
		for _, g := range snap.Gauges {
			out = append(out, g.Name)
		}
		for _, h := range snap.Histograms {
			out = append(out, h.Name)
		}
		return out
	}
	before := series()
	for i := 1; i <= 50; i++ {
		if err := insert(fmt.Sprintf("CS/F%d/(5,5)", i)); err == nil {
			t.Fatalf("CS/F%d: a reading at an invented floor was stored", i)
		}
	}
	if after := series(); !reflect.DeepEqual(after, before) {
		t.Errorf("invented floors changed the series: %d before, %d after", len(before), len(after))
	}
}
