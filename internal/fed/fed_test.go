// Federation tests live in an external package so they can assemble
// real daemons — core service + remote server + router per node —
// without an import cycle (remote imports fed).
package fed_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/faultnet"
	"middlewhere/internal/fed"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
)

// threeStorey is the shared building model every daemon loads: the
// federation partitions ownership of floors, not knowledge of the map.
// Floors are CS/F0, CS/F1, CS/F2 — one shard key each.
func threeStorey() *building.Building {
	return building.MultiStorey("CS", 3, 2, 2, 10, 8, 4)
}

// allRegion is a building-frame rect covering every floor — a region
// whose shard key is the building root, so a federated scan fans out
// to every placed shard.
func allRegion() glob.GLOB {
	return glob.CoordinateRect(glob.MustParse("CS"), geom.R(0, 0, 20, 72))
}

func testSpec() model.SensorSpec {
	spec := model.UbisenseSpec(0.95)
	spec.TTL = 24 * time.Hour
	return spec
}

// fReading places an object at floor-local (x, y) on CS/F<floor>.
func fReading(object string, floor int, x, y float64, at time.Time) model.Reading {
	return model.Reading{
		SensorID:  "ubi-1",
		MObjectID: object,
		Location:  glob.MustParse(fmt.Sprintf("CS/F%d/(%g,%g)", floor, x, y)),
		Time:      at,
	}
}

// fedDaemon is one daemon of a test federation: a Location Service
// whose database survives restarts, plus the server+router pair each
// start builds fresh (a restarted daemon binds a new port, re-leases
// its floors, and rejoins — the registry bumps the placement version
// and peers reconnect).
type fedDaemon struct {
	name    string
	floors  []string
	regAddr string
	svc     *core.Service

	mu     sync.Mutex
	router *fed.Router
}

func newFedDaemon(t *testing.T, name string, floors []string, regAddr string) *fedDaemon {
	t.Helper()
	svc, err := core.New(threeStorey())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if err := svc.RegisterSensor("ubi-1", testSpec()); err != nil {
		t.Fatal(err)
	}
	return &fedDaemon{name: name, floors: floors, regAddr: regAddr, svc: svc}
}

// start is the faultnet.NodeSpec hook: fresh listener and router, same
// service — the store that survives the crash.
func (d *fedDaemon) start() (string, func(), error) {
	srv := remote.NewServer(d.svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	router, err := fed.New(d.svc, fed.Config{
		Daemon:       d.name,
		Addr:         addr,
		RegistryAddr: d.regAddr,
		Floors:       d.floors,
		// Leases far outlive the test so a killed daemon stays in the
		// placement map — the degraded window the suite exercises.
		LeaseTTL:         30 * time.Second,
		Heartbeat:        50 * time.Millisecond,
		RefreshEvery:     25 * time.Millisecond,
		DialTimeout:      250 * time.Millisecond,
		CallTimeout:      750 * time.Millisecond,
		Attempts:         2,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       20 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	})
	if err != nil {
		srv.Close()
		return "", nil, err
	}
	srv.SetFederation(router)
	d.mu.Lock()
	d.router = router
	d.mu.Unlock()
	// Kill, not Close: a crash does not get to politely release its
	// placement lease.
	return addr, func() { router.Kill(); srv.Close() }, nil
}

func (d *fedDaemon) fedRouter() *fed.Router {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.router
}

// federation is a registry plus a cluster of fedDaemons.
type federation struct {
	t       *testing.T
	cluster *faultnet.Cluster
	daemons map[string]*fedDaemon
	regAddr string
}

func startFederation(t *testing.T, floorsByDaemon map[string][]string) *federation {
	t.Helper()
	reg := registry.NewServer(time.Now)
	regAddr, err := reg.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { reg.Close() })
	f := &federation{
		t:       t,
		cluster: faultnet.NewCluster(),
		daemons: make(map[string]*fedDaemon),
		regAddr: regAddr,
	}
	t.Cleanup(f.cluster.StopAll)
	names := make([]string, 0, len(floorsByDaemon))
	for name := range floorsByDaemon {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.addDaemon(name, floorsByDaemon[name])
	}
	if err := f.cluster.StartAll(); err != nil {
		t.Fatal(err)
	}
	f.awaitPlacement(f.shardCount())
	return f
}

func (f *federation) addDaemon(name string, floors []string) *fedDaemon {
	d := newFedDaemon(f.t, name, floors, f.regAddr)
	f.daemons[name] = d
	if err := f.cluster.Add(faultnet.NodeSpec{Name: name, Start: d.start}); err != nil {
		f.t.Fatal(err)
	}
	return d
}

func (f *federation) shardCount() int {
	n := 0
	for _, d := range f.daemons {
		n += len(d.floors)
	}
	return n
}

// awaitPlacement waits until every running daemon's cached placement
// covers n shards.
func (f *federation) awaitPlacement(n int) {
	f.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for name, d := range f.daemons {
			if !f.cluster.Running(name) {
				continue
			}
			r := d.fedRouter()
			if r == nil || len(r.Placement().Shards) < n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			f.t.Fatal("placement never converged")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rowsFor counts an object's stored rows on one daemon.
func rowsFor(d *fedDaemon, object string, since time.Time) int {
	return len(d.svc.DB().ReadingsFor(object, since))
}

func TestFederatedIngestRoutesToOwner(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha, beta := f.daemons["alpha"], f.daemons["beta"]
	base := time.Now()
	since := base.Add(-time.Minute)

	// A reading on beta's floor, ingested at alpha, lands on beta.
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, base)}); err != nil {
		t.Fatalf("ingest via alpha: %v", err)
	}
	if got := rowsFor(beta, "bob", since); got != 1 {
		t.Errorf("beta rows for bob = %d, want 1 (forwarded to owner)", got)
	}
	if got := rowsFor(alpha, "bob", since); got != 0 {
		t.Errorf("alpha rows for bob = %d, want 0 (must not keep a copy)", got)
	}

	// A reading on alpha's own floor stays local.
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("ann", 0, 5, 5, base)}); err != nil {
		t.Fatalf("local ingest: %v", err)
	}
	if got := rowsFor(alpha, "ann", since); got != 1 {
		t.Errorf("alpha rows for ann = %d, want 1", got)
	}
	if got := rowsFor(beta, "ann", since); got != 0 {
		t.Errorf("beta rows for ann = %d, want 0", got)
	}
}

func TestFederatedQueryMergesAcrossDaemons(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha, beta := f.daemons["alpha"], f.daemons["beta"]
	base := time.Now()
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("ann", 0, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}
	if err := beta.svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}

	objs, unavailable, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0, false, "")
	if err != nil {
		t.Fatalf("federated query: %v", err)
	}
	if len(unavailable) != 0 {
		t.Fatalf("unavailable = %v, want none", unavailable)
	}
	if _, ok := objs["ann"]; !ok {
		t.Errorf("merged result missing local object ann: %v", objs)
	}
	if _, ok := objs["bob"]; !ok {
		t.Errorf("merged result missing remote object bob: %v", objs)
	}

	// The same scan through the client API, plus the probe and shard
	// map the mwctl commands use.
	c, err := remote.DialLocation(f.cluster.Addr("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Probe(); err != nil {
		t.Errorf("probe: %v", err)
	}
	rep, err := c.FedObjectsInRegion(allRegion().String(), 0, false)
	if err != nil {
		t.Fatalf("client federated query: %v", err)
	}
	if rep.Partial || len(rep.Unavailable) != 0 {
		t.Errorf("client query partial = %v unavailable = %v", rep.Partial, rep.Unavailable)
	}
	if !reflect.DeepEqual(rep.Objects, objs) {
		t.Errorf("client query = %v, router query = %v", rep.Objects, objs)
	}
	shards, err := c.Shards()
	if err != nil {
		t.Fatalf("shards: %v", err)
	}
	if shards.Daemon != "alpha" || len(shards.Placement) != 2 {
		t.Errorf("shards = %+v, want daemon alpha with 2 placements", shards)
	}
	health, err := c.ServerHealth()
	if err != nil {
		t.Fatal(err)
	}
	if health.Federation == nil || health.Federation.Daemon != "alpha" {
		t.Errorf("health federation block = %+v, want daemon alpha", health.Federation)
	}
}

// TestFederatedQueryDeterministicWithDownPeer pins the degraded-read
// contract: with one daemon dead, repeated federated scans return
// identical merged results and an identical, sorted Unavailable list —
// the error path must be as deterministic as the happy path — and
// strict mode turns the partial result into ErrUnavailable.
func TestFederatedQueryDeterministicWithDownPeer(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
		"gamma": {"CS/F2"},
	})
	alpha := f.daemons["alpha"]
	base := time.Now()
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("ann", 0, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}
	if err := f.daemons["beta"].svc.IngestBatch([]model.Reading{fReading("bob", 1, 5, 5, base)}); err != nil {
		t.Fatal(err)
	}

	f.cluster.Kill("gamma")

	// First partial observation (the kill needs a call to be noticed).
	var refObjs map[string]float64
	var refUnavailable []string
	deadline := time.Now().Add(5 * time.Second)
	for {
		objs, unavailable, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0, false, "")
		if err != nil {
			t.Fatalf("federated query: %v", err)
		}
		if len(unavailable) > 0 {
			refObjs, refUnavailable = objs, unavailable
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never reported the dead daemon's shards unavailable")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if want := []string{"CS/F2"}; !reflect.DeepEqual(refUnavailable, want) {
		t.Fatalf("unavailable = %v, want %v", refUnavailable, want)
	}
	if !sort.StringsAreSorted(refUnavailable) {
		t.Fatalf("unavailable list not sorted: %v", refUnavailable)
	}
	if _, ok := refObjs["ann"]; !ok {
		t.Errorf("partial result lost reachable object ann: %v", refObjs)
	}
	if _, ok := refObjs["bob"]; !ok {
		t.Errorf("partial result lost reachable object bob: %v", refObjs)
	}

	// Determinism across repeats — through breaker-open, half-open, and
	// re-open cycles the merge must not wobble.
	for i := 0; i < 5; i++ {
		objs, unavailable, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0, false, "")
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if !reflect.DeepEqual(objs, refObjs) {
			t.Errorf("repeat %d merged %v, first run merged %v", i, objs, refObjs)
		}
		if !reflect.DeepEqual(unavailable, refUnavailable) {
			t.Errorf("repeat %d unavailable %v, first run %v", i, unavailable, refUnavailable)
		}
	}

	// Strict mode refuses to degrade.
	_, _, err := alpha.fedRouter().ObjectsInRegion(allRegion(), 0, true, "")
	if !errors.Is(err, fed.ErrUnavailable) {
		t.Errorf("strict query error = %v, want ErrUnavailable", err)
	}
}

// TestMigrationMovesObjectToNewOwner covers the planned-handoff path:
// an object stored locally while its floor was unleased migrates to
// the floor's owner the next time a reading for it arrives.
func TestMigrationMovesObjectToNewOwner(t *testing.T) {
	f := startFederation(t, map[string][]string{"alpha": {"CS/F0"}})
	alpha := f.daemons["alpha"]
	base := time.Now()
	since := base.Add(-time.Minute)

	// CS/F1 is unleased, so walker's rows accumulate on alpha.
	for i := 0; i < 3; i++ {
		if err := alpha.svc.IngestBatch([]model.Reading{fReading("walker", 1, 5, 5, base.Add(time.Duration(i)*time.Second))}); err != nil {
			t.Fatal(err)
		}
	}
	exportedEpoch := alpha.svc.DB().ReadingEpoch("walker")

	// beta joins and leases CS/F1.
	f.addDaemon("beta", []string{"CS/F1"})
	if err := f.cluster.Start("beta"); err != nil {
		t.Fatal(err)
	}
	f.awaitPlacement(2)
	beta := f.daemons["beta"]

	// The next reading triggers handoff-then-forward.
	if err := alpha.svc.IngestBatch([]model.Reading{fReading("walker", 1, 6, 6, base.Add(10*time.Second))}); err != nil {
		t.Fatal(err)
	}
	if got := rowsFor(beta, "walker", since); got != 4 {
		t.Errorf("beta rows = %d, want 4 (3 migrated + 1 forwarded)", got)
	}
	if got := rowsFor(alpha, "walker", since); got != 0 {
		t.Errorf("alpha rows = %d, want 0 after commit", got)
	}
	if e := beta.svc.DB().ReadingEpoch("walker"); e <= exportedEpoch {
		t.Errorf("epoch did not advance across migration: %d -> %d", exportedEpoch, e)
	}
}

// TestMigrationRetriesAfterOwnerCrash covers the degraded-then-heal
// path: while the owner is down, its floor's readings fall back to
// local storage on the ingesting daemon; once the owner restarts, the
// accumulated rows migrate over — exactly once.
func TestMigrationRetriesAfterOwnerCrash(t *testing.T) {
	f := startFederation(t, map[string][]string{
		"alpha": {"CS/F0"},
		"beta":  {"CS/F1"},
	})
	alpha, beta := f.daemons["alpha"], f.daemons["beta"]
	base := time.Now()
	since := base.Add(-time.Minute)

	f.cluster.Kill("beta")

	// Owner down: ingest degrades to local storage, loses nothing.
	for i := 0; i < 3; i++ {
		if err := alpha.svc.IngestBatch([]model.Reading{fReading("walker", 1, 5, 5, base.Add(time.Duration(i)*time.Second))}); err != nil {
			t.Fatalf("degraded ingest must not error: %v", err)
		}
	}
	if got := rowsFor(alpha, "walker", since); got != 3 {
		t.Fatalf("alpha rows = %d, want 3 buffered locally while owner down", got)
	}

	if err := f.cluster.Restart("beta"); err != nil {
		t.Fatal(err)
	}
	f.awaitPlacement(2)

	// Readings keep coming; within a few rounds the breaker closes, the
	// handoff runs, and everything lands on beta exactly once.
	deadline := time.Now().Add(5 * time.Second)
	i := 3
	for {
		if err := alpha.svc.IngestBatch([]model.Reading{fReading("walker", 1, 5, 5, base.Add(time.Duration(i)*time.Second))}); err != nil {
			t.Fatal(err)
		}
		i++
		if rowsFor(alpha, "walker", since) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rows never migrated off alpha; alpha=%d beta=%d",
				rowsFor(alpha, "walker", since), rowsFor(beta, "walker", since))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := rowsFor(beta, "walker", since); got != i {
		t.Errorf("beta rows = %d, want %d (no loss, no duplication)", got, i)
	}
	// Every row is unique: the migration dedup key would have collapsed
	// replays, so equal counts prove exactly-once delivery.
	rows := beta.svc.DB().ReadingsFor("walker", since)
	seen := make(map[string]bool, len(rows))
	for _, r := range rows {
		k := fmt.Sprintf("%s|%d|%s", r.SensorID, r.Time.UnixNano(), r.Location.String())
		if seen[k] {
			t.Errorf("duplicated row after recovery: %s", k)
		}
		seen[k] = true
	}
}
