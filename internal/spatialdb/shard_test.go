package spatialdb

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"strings"
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
// (CS/Floor1..CS/FloorN), each 500x100, so readings on different
// floors land on different shards.
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
	return New(tr, geom.R(0, 0, 500, float64(floors)*100))
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
		{"(5,22)", rootShardKey},
	}
	for _, c := range cases {
		g := glob.MustParse(c.in)
		if got := shardKeyForGLOB(g); got != c.want {
			t.Errorf("shardKeyForGLOB(%q) = %q, want %q", c.in, got, c.want)
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
	stats := db.ShardStats()
	if len(stats) != 3 {
		t.Fatalf("shards = %+v", stats)
	}
	for i, st := range stats {
		wantKey := fmt.Sprintf("CS/Floor%d", i+1)
		if st.Key != wantKey {
			t.Errorf("stats[%d].Key = %q, want %q (stats must sort by key)", i, st.Key, wantKey)
		}
		if st.MobileObjects != i+1 || st.Readings != i+1 || st.Inserts != uint64(i+1) {
			t.Errorf("%s: mobile=%d readings=%d inserts=%d, want %d each",
				st.Key, st.MobileObjects, st.Readings, st.Inserts, i+1)
		}
		if st.Epoch == 0 {
			t.Errorf("%s: write epoch still zero after inserts", st.Key)
		}
	}
	// Global views still union the shards.
	if got := len(db.MobileObjects()); got != 6 {
		t.Errorf("MobileObjects = %d, want 6", got)
	}
	if got := len(db.Objects()); got != 3 {
		t.Errorf("Objects = %d, want 3", got)
	}
}

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
	e1 := db.ReadingEpoch("walker")
	if e1 == 0 {
		t.Fatal("epoch zero after first insert")
	}
	// The object takes the stairs: next reading is on floor 2. Its rows
	// must follow it and its epoch must keep rising — a cached fusion
	// result keyed on e1 has to read as stale afterwards.
	if err := db.InsertReading(floorReading("s2", "walker", 2, 5, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	e2 := db.ReadingEpoch("walker")
	if e2 <= e1 {
		t.Errorf("epoch after migration = %d, want > %d", e2, e1)
	}
	rows := db.ReadingsFor("walker", t0.Add(time.Second))
	if len(rows) != 2 {
		t.Fatalf("rows after migration = %v", rows)
	}
	stats := db.ShardStats()
	if stats[0].MobileObjects != 0 || stats[1].MobileObjects != 1 {
		t.Errorf("rows did not migrate: %+v", stats)
	}
	if got := mMigrations.Value(); got == 0 {
		t.Error("migration counter not bumped")
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

// TestShardMetricNamesStable pins the registry names the shard layer
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
	before := obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", "CS/Floor2")).Value()
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
		"spatialdb_shards",
		"spatialdb_shard_migrations_total",
		"spatialdb_snapshots_total",
		"spatialdb_snapshot_pool_live",
		`spatialdb_shard_inserts_total{shard="CS/Floor2"}`,
	} {
		if !names[want] {
			t.Errorf("registry missing %q", want)
		}
	}
	after := obs.Default().Counter(obs.LabeledName("spatialdb_shard_inserts_total", "shard", "CS/Floor2")).Value()
	if after != before+1 {
		t.Errorf("per-shard insert counter moved %d -> %d, want +1", before, after)
	}
}

// exposition is one /metrics line: a metric name, optional labels
// whose values escape backslash, double quote and newline, and a value.
var exposition = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"` +
	`(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+)$`)

// TestMetricsTextEscapesShardLabels ingests coordinate readings on
// floors the building lacks, whose names hold a double quote and a
// backslash (GLOB segments accept both). They resolve through the
// building frame and create shards named after those floors; every
// line /metrics then prints must still parse, the shard label escaped.
func TestMetricsTextEscapesShardLabels(t *testing.T) {
	db := multiFloorDB(t, 1)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	for _, loc := range []string{`CS/F"1/(5,5)`, `CS/F\2/(5,5)`} {
		r := model.Reading{SensorID: "s1", MObjectID: "m", Location: glob.MustParse(loc), Time: t0}
		if err := db.InsertReading(r); err != nil {
			t.Fatalf("%s: %v", loc, err)
		}
	}
	text := obs.MetricsTextString(obs.Default())
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		m := exposition.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable /metrics line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(m[2], 64); err != nil {
			t.Errorf("/metrics line %q: value: %v", line, err)
		}
	}
	for _, want := range []string{
		`spatialdb_shard_inserts_total{shard="CS/F\"1"} 1`,
		`spatialdb_shard_inserts_total{shard="CS/F\\2"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}
