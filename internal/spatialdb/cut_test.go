package spatialdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/model"
)

// TestCutConcurrentIngestNeverTorn is the cut stress test (run under
// -race): continuous snapshot cuts race single-shard InsertReadings
// batches on every floor. No cut ever observes a torn batch — every
// object's visible row count is a whole number of batches — and every
// batch lands despite the cut pressure.
func TestCutConcurrentIngestNeverTorn(t *testing.T) {
	const (
		floors    = 4
		batchLen  = 4
		batches   = 10
		objPerFlr = 2
	)
	if batchLen*batches >= maxReadingsPerObject {
		t.Fatal("test misconfigured: trimming would break the invariant")
	}
	db := multiFloorDB(t, floors)
	for s := 0; s < batchLen; s++ {
		if err := db.RegisterSensor(fmt.Sprintf("s%d", s), longSpec()); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var cuts atomic.Int64
	// Writers: one goroutine per object, single-shard batches.
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
	// Cutters: hammer Snapshot as fast as it will go and check every
	// object for a torn batch on each cut.
	var cutters sync.WaitGroup
	for r := 0; r < 2; r++ {
		cutters.Add(1)
		go func() {
			defer cutters.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := db.Snapshot()
				cuts.Add(1)
				for f := 1; f <= floors; f++ {
					for o := 0; o < objPerFlr; o++ {
						obj := fmt.Sprintf("obj-%d-%d", f, o)
						if n := len(snapLive(snap, obj, t0)); n%batchLen != 0 {
							t.Errorf("cut saw %d rows for %s: torn batch", n, obj)
							snap.Close()
							return
						}
					}
				}
				snap.Close()
			}
		}()
	}
	wg.Wait()
	// On a single-CPU box the writers can finish before a cutter ever
	// gets scheduled; make sure at least one cut ran before stopping.
	for cuts.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	cutters.Wait()
	// Every batch landed despite the cut pressure.
	final := db.Snapshot()
	defer final.Close()
	for f := 1; f <= floors; f++ {
		for o := 0; o < objPerFlr; o++ {
			obj := fmt.Sprintf("obj-%d-%d", f, o)
			if n := len(snapLive(final, obj, t0)); n != batchLen*batches {
				t.Errorf("%s: final rows = %d, want %d", obj, n, batchLen*batches)
			}
		}
	}
}

// TestSnapshotPoolLeak pins the handle accounting: every Snapshot
// handle Closed ⇒ the live gauge returns to its baseline, and extra
// Closes don't drive it negative.
func TestSnapshotPoolLeak(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "m", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	base := mSnapPoolLive.Value()
	var snaps []*Snapshot
	for i := 0; i < 5; i++ {
		snaps = append(snaps, db.Snapshot())
		if i%2 == 1 {
			// Mutate between some cuts, so not every cut is of the same
			// tables.
			if err := db.InsertReading(floorReading("s1", "m", 1, float64(6+i), 5,
				t0.Add(time.Duration(i)*time.Second))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := mSnapPoolLive.Value(); got != base+5 {
		t.Fatalf("live gauge after 5 opens = %v, want %v", got, base+5)
	}
	for _, s := range snaps {
		s.Close()
	}
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after closing all = %v, want baseline %v: leaked handles", got, base)
	}
	// Double-close and nil-close are no-ops, not gauge corruption.
	snaps[0].Close()
	(*Snapshot)(nil).Close()
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after double close = %v, want %v", got, base)
	}
}

// TestCutQuietShardRecaptureCloneFree pins why every cut can be a
// fresh capture: when only one floor mutates between two cuts, the
// second cut finds the quiet floor's table still frozen and captures
// the same table again — no clone — and the quiet floor's next writer
// pays exactly one clone, however many cuts happened in between.
func TestCutQuietShardRecaptureCloneFree(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 2; f++ {
		if err := db.InsertReading(floorReading("s1", fmt.Sprintf("m%d", f), f, 5, 5, t0)); err != nil {
			t.Fatal(err)
		}
	}
	s1 := db.Snapshot()
	defer s1.Close()
	// Mutate floor 1 only, then cut again.
	if err := db.InsertReading(floorReading("s1", "m1", 1, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	s2 := db.Snapshot()
	defer s2.Close()
	if s1.shards[1] != s2.shards[1] {
		t.Error("quiet floor's frozen table must be captured again, not cloned")
	}
	if s1.shards[0] == s2.shards[0] {
		t.Error("mutated floor must be recaptured")
	}
	base := mSnapClones.Value()
	// The quiet floor was already frozen by s1; the next write there
	// pays exactly one clone, same as with a single cut.
	if err := db.InsertReading(floorReading("s1", "m2", 2, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	if got := mSnapClones.Value(); got != base+1 {
		t.Errorf("quiet floor's first post-cut write: clones %d -> %d, want +1", base, got)
	}
}

// TestConcurrentCutsFreshWholeAndReturn checks what Snapshot promises
// under the heaviest contention the protocol has: several cutters
// hammer Snapshot while writers keep all-shard brackets open back to
// back. Every cut holds each batch that completed before the call
// (a cut handed out from before the last bracket closed would not),
// holds all of a batch or none across floors, and returns once
// the writers are done. A cutter can only be caught waiting at the
// moment writing stops, hence many short bursts rather than one long
// one.
func TestConcurrentCutsFreshWholeAndReturn(t *testing.T) {
	const (
		floors  = 4
		writers = 3
		cutters = 4
		bursts  = 60
		batches = 25
	)
	db := multiFloorDB(t, floors)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	// Writer w stamps its k-th batch t0+k ms and publishes k once the
	// batch is stored, so a row's time says which batch it came from.
	var stored [writers]atomic.Int64
	newest := func(snap *Snapshot, w, f int) int64 {
		c := candidateFor(snap, fmt.Sprintf("w%d-f%d", w, f))
		rows := c.LatestPerSensor(snap.SensorSpecs(), t0)
		if len(rows) == 0 {
			return 0
		}
		return int64(rows[0].Time.Sub(t0) / time.Millisecond)
	}
	for burst := 0; burst < bursts; burst++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					k := int64(burst*batches + b + 1)
					// One reading per floor: the bracket spans every shard.
					batch := make([]model.Reading, floors)
					for f := 1; f <= floors; f++ {
						batch[f-1] = floorReading("s1", fmt.Sprintf("w%d-f%d", w, f), f,
							float64(b), float64(w), t0.Add(time.Duration(k)*time.Millisecond))
					}
					if n, err := db.InsertReadings(batch, nil); err != nil || n != floors {
						t.Errorf("insert batch: n=%d err=%v", n, err)
						return
					}
					stored[w].Store(k)
				}
			}()
		}
		stop := make(chan struct{})
		var cwg sync.WaitGroup
		for c := 0; c < cutters; c++ {
			w := c % writers
			cwg.Add(1)
			go func() {
				defer cwg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					before := stored[w].Load()
					snap := db.Snapshot()
					got := newest(snap, w, 1)
					if got < before {
						t.Errorf("cut holds writer %d up to batch %d; batch %d was stored before the call", w, got, before)
					}
					for f := 2; f <= floors; f++ {
						if n := newest(snap, w, f); n != got {
							t.Errorf("cut saw writer %d at batch %d on floor 1 and %d on floor %d: torn batch", w, got, n, f)
						}
					}
					snap.Close()
					if t.Failed() {
						return
					}
				}
			}()
		}
		wg.Wait()
		close(stop)
		returned := make(chan struct{})
		go func() { cwg.Wait(); close(returned) }()
		select {
		case <-returned:
		case <-time.After(10 * time.Second):
			t.Fatalf("burst %d: a cutter never returned from Snapshot with every writer finished", burst)
		}
	}
}

// TestCutWaitsForOpenBracket pins both directions of the one lock and
// the rule that keeps it live (DB.cutMu, rule 2). With a bracket held
// open, cuts do not return; a cross-floor migration made from inside
// that bracket still completes while they wait — it would deadlock
// behind the waiting cut if placeObject took cutMu again; a writer that
// arrives meanwhile queues once behind the cut; and closing the bracket
// releases all of them, each cut holding everything the bracket wrote.
func TestCutWaitsForOpenBracket(t *testing.T) {
	const cutters = 3
	db := multiFloorDB(t, 3)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	// mover starts on floor 1; seed makes floor 2's shard exist.
	for _, r := range []model.Reading{floorReading("s1", "mover", 1, 6, 6, t0), floorReading("s1", "seed", 2, 5, 5, t0)} {
		if err := db.InsertReading(r); err != nil {
			t.Fatal(err)
		}
	}
	floor1, _ := db.shardFor("CS/Floor1")
	floor2, _ := db.shardFor("CS/Floor2")
	waitBase := mCutWaitUs.Count()

	// The bracket, by hand: one row stored on floor 1, left open.
	db.beginBatch()
	floor1.readMu.Lock()
	floor1.mutableTable().rows["held"] = []model.Reading{floorReading("s1", "held", 1, 7, 7, t0)}
	floor1.readMu.Unlock()

	cuts := make(chan *Snapshot, cutters)
	for c := 0; c < cutters; c++ {
		go func() { cuts <- db.Snapshot() }()
	}
	// A cut is waiting once the shared lock can no longer be had: a
	// waiting writer turns new readers away.
	for deadline := time.Now().Add(10 * time.Second); db.cutMu.TryRLock(); {
		db.cutMu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("no cut ever waited for the open bracket")
		}
		time.Sleep(100 * time.Microsecond)
	}

	migrated := make(chan struct{})
	go func() { db.placeObject("mover", floor2); close(migrated) }()
	select {
	case <-migrated:
	case <-time.After(5 * time.Second):
		t.Fatal("a migration inside the open bracket did not complete with a cut waiting: placeObject re-entered cutMu")
	}

	// The writer's shard does not exist yet; InsertReadings creates it
	// just before it asks for the lock, so once the shard is there a few
	// milliseconds are ample for the writer to be queued.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := db.InsertReading(floorReading("s1", "late", 3, 5, 5, t0)); err != nil {
			t.Error(err)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if _, ok := db.shardFor("CS/Floor3"); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the late writer never reached its bracket")
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	select {
	case snap := <-cuts:
		snap.Close()
		t.Fatal("a cut returned with the bracket still open")
	default:
	}

	db.endBatch()
	// No shard is created after the late writer's, which every cut
	// waited for, so the cuts' tables line up with the shard list.
	shards := db.allShards()
	for c := 0; c < cutters; c++ {
		select {
		case snap := <-cuts:
			if n := len(snapLive(snap, "held", t0)); n != 1 {
				t.Errorf("cut holds %d rows of the bracket's insert, want 1", n)
			}
			if len(snap.shards) != len(shards) {
				t.Fatalf("cut has %d shards, want %d", len(snap.shards), len(shards))
			}
			for i, tab := range snap.shards {
				key := shards[i].key
				if _, ok := tab.rows["mover"]; ok != (key == floor2.key) {
					t.Errorf("cut has mover on %s: %v; the bracket moved it to %s", key, ok, floor2.key)
				}
			}
			snap.Close()
		case <-time.After(10 * time.Second):
			t.Fatalf("cut %d of %d never returned after the bracket closed", c+1, cutters)
		}
	}
	wg.Wait()
	if parked := mCutWaitUs.Count() - waitBase; parked != 1 {
		t.Errorf("spatialdb_cut_wait_us observed %d waits, want 1: the writer that arrived behind the waiting cut", parked)
	}
	final := db.Snapshot()
	defer final.Close()
	if n := len(snapLive(final, "late", t0)); n != 1 {
		t.Errorf("late: %d rows in a cut taken after its insert returned, want 1", n)
	}
}
