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
// -race): continuous snapshot cuts race single-object InsertReadings
// batches (each one stripe group) on every floor. No cut ever observes
// a torn batch — every object's visible row count is a whole number of
// batches — and every batch lands despite the cut pressure.
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
	// Writers: one goroutine per object, single-object batches.
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

// TestSnapshotPoolLeak pins the handle accounting and the cut's turn:
// the live gauge counts the one open handle, a second Snapshot waits
// for its Close, every handle Closed ⇒ the gauge returns to its
// baseline, and extra Closes don't drive it negative or release a lock
// twice.
func TestSnapshotPoolLeak(t *testing.T) {
	db := multiFloorDB(t, 2)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertReading(floorReading("s1", "m", 1, 5, 5, t0)); err != nil {
		t.Fatal(err)
	}
	base := mSnapPoolLive.Value()
	first := db.Snapshot()
	if got := mSnapPoolLive.Value(); got != base+1 {
		t.Fatalf("live gauge after an open = %v, want %v", got, base+1)
	}
	next := make(chan *Snapshot)
	go func() { next <- db.Snapshot() }()
	select {
	case <-next:
		t.Fatal("a second Snapshot returned while the first was open")
	case <-time.After(20 * time.Millisecond):
	}
	first.Close()
	second := <-next
	if got := mSnapPoolLive.Value(); got != base+1 {
		t.Fatalf("live gauge after the second open = %v, want %v", got, base+1)
	}
	second.Close()
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after closing all = %v, want baseline %v: leaked handles", got, base)
	}
	// Double-close and nil-close are no-ops, not gauge corruption, and
	// release no lock twice: a write and a cut go through.
	first.Close()
	(*Snapshot)(nil).Close()
	if got := mSnapPoolLive.Value(); got != base {
		t.Fatalf("live gauge after double close = %v, want %v", got, base)
	}
	if err := db.InsertReading(floorReading("s1", "m", 1, 6, 5, t0.Add(time.Second))); err != nil {
		t.Fatal(err)
	}
	db.Snapshot().Close()
}

// TestConcurrentCutsFreshWholeAndReturn checks what Snapshot promises
// under the heaviest contention the protocol has: several cutters
// hammer Snapshot while writers store batches that span several
// stripes back to back and one object alternates between the first and
// the last floor with every batch. Every cut
//   - holds each batch that completed before the call, for every
//     object;
//   - holds a prefix of each batch's stripe groups: writer w's objects
//     are at batch k or k−1, where k is its first group's batch, the
//     same within a group and non-increasing in store order;
//   - holds the walking object in exactly one candidate from its first
//     store onward;
//   - returns once the writers are done.
//
// A cutter can only be caught waiting at the moment writing stops,
// hence many short bursts rather than one long one.
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
	var moverStored atomic.Bool
	// groups[w] is writer w's floors grouped by their object's stripe,
	// in InsertReadings' store order: first appearance in the batch.
	var groups [writers][][]int
	for w := range groups {
		at := make(map[int]int)
		for f := 1; f <= floors; f++ {
			si := stripeOf(fmt.Sprintf("w%d-f%d", w, f))
			g, ok := at[si]
			if !ok {
				g = len(groups[w])
				at[si] = g
				groups[w] = append(groups[w], nil)
			}
			groups[w][g] = append(groups[w][g], f)
		}
	}
	newest := func(c Candidate, specs map[string]model.SensorSpec) int64 {
		rows := c.LatestPerSensor(specs, t0)
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
					// One reading per floor, each for its own object.
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
		// The mover alternates between the first and the last floor, so
		// each of its readings changes its floor.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				f := 1 + (burst*batches+b)%2*(floors-1)
				r := floorReading("s1", "mover", f, float64(b), 9, t0.Add(time.Duration(burst*batches+b)*time.Millisecond))
				if n, err := db.InsertReadings([]model.Reading{r}, nil); err != nil || n != 1 {
					t.Errorf("insert mover: n=%d err=%v", n, err)
					return
				}
				moverStored.Store(true)
			}
		}()
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
					before, moved := stored[w].Load(), moverStored.Load()
					snap := db.Snapshot()
					all := snap.MobileObjects()
					snap.Close()
					byID := make(map[string]Candidate, len(all))
					movers := 0
					for _, c := range all {
						byID[c.ID] = c
						if c.ID == "mover" {
							movers++
						}
					}
					if moved && movers != 1 {
						t.Errorf("cut holds the walking object in %d candidates, want exactly 1", movers)
					}
					specs := snap.SensorSpecs()
					at := func(f int) int64 { return newest(byID[fmt.Sprintf("w%d-f%d", w, f)], specs) }
					first := at(groups[w][0][0])
					prev := first
					for _, g := range groups[w] {
						n := at(g[0])
						for _, f := range g {
							if m := at(f); m != n {
								t.Errorf("cut saw writer %d at batch %d on floor %d and %d on floor %d, one stripe group: torn group", w, n, g[0], m, f)
							}
							if at(f) < before {
								t.Errorf("cut holds writer %d up to batch %d on floor %d; batch %d was stored before the call", w, at(f), f, before)
							}
						}
						if n > prev || n < first-1 {
							t.Errorf("cut saw writer %d at batch %d in its first group and %d in the group of floor %d (previous group at %d): not a prefix of the batch's groups", w, first, n, g[0], prev)
						}
						prev = n
					}
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

// idInStripe returns the first ID prefix0, prefix1, ... that hashes to
// the stripe.
func idInStripe(prefix string, stripe int) string {
	for i := 0; ; i++ {
		if id := fmt.Sprintf("%s%d", prefix, i); stripeOf(id) == stripe {
			return id
		}
	}
}

// TestCutWaitsForOpenBracket pins both directions of the stripe locks
// a cut holds. A store left open half-way — the last stripe's write
// lock held with one row written — makes a cut wait, and the cut that
// returns once the lock is released holds that row. A writer that
// arrives behind the waiting cut, on the first stripe, which the cut
// already holds, waits for the cut's Close, and returns after it.
func TestCutWaitsForOpenBracket(t *testing.T) {
	db := multiFloorDB(t, 3)
	if err := db.RegisterSensor("s1", longSpec()); err != nil {
		t.Fatal(err)
	}
	for f := 1; f <= 3; f++ {
		if err := db.InsertReading(floorReading("s1", fmt.Sprintf("seed%d", f), f, 5, 5, t0)); err != nil {
			t.Fatal(err)
		}
	}
	heldID, lateID := idInStripe("held", stripeCount-1), idInStripe("late", 0)
	first, last := db.stripes[0], db.stripes[stripeCount-1]
	waitBase := mCutWaitUs.Count()

	// The store, by hand: one row written on the last stripe, lock kept.
	last.readMu.Lock()
	held := last.table.rec(heldID)
	held.rows = []model.Reading{floorReading("s1", heldID, 3, 7, 7, t0)}
	held.epoch++

	cuts := make(chan *Snapshot, 1)
	go func() { cuts <- db.Snapshot() }()
	// The cut takes the first stripe, then waits at the last: once the
	// first can no longer be write-locked, the cut holds it.
	for deadline := time.Now().Add(10 * time.Second); first.readMu.TryLock(); {
		first.readMu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("the cut never took the first stripe's read lock")
		}
		time.Sleep(100 * time.Microsecond)
	}

	wrote := make(chan error, 1)
	go func() { wrote <- db.InsertReading(floorReading("s1", lateID, 1, 5, 5, t0)) }()
	// The writer is queued once new readers are turned away.
	for deadline := time.Now().Add(10 * time.Second); first.readMu.TryRLock(); {
		first.readMu.RUnlock()
		if time.Now().After(deadline) {
			t.Fatal("the late writer never queued for the first stripe")
		}
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case snap := <-cuts:
		snap.Close()
		t.Fatal("a cut returned with the last stripe's store still open")
	case err := <-wrote:
		t.Fatalf("a writer stored on the first stripe under the waiting cut (err %v)", err)
	default:
	}

	last.readMu.Unlock()
	var snap *Snapshot
	select {
	case snap = <-cuts:
	case <-time.After(10 * time.Second):
		t.Fatal("the cut never returned after the last stripe's store closed")
	}
	if n := len(snapLive(snap, heldID, t0)); n != 1 {
		t.Errorf("cut holds %d rows of the store it waited for, want 1", n)
	}
	if n := len(snapRows(snap, lateID)); n != 0 {
		t.Errorf("cut holds %d rows of the writer queued behind it, want 0", n)
	}
	time.Sleep(time.Millisecond)
	select {
	case err := <-wrote:
		t.Fatalf("a writer stored on the first stripe under the open cut (err %v)", err)
	default:
	}
	snap.Close()
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the late writer never returned after the cut closed")
	}
	if waits := mCutWaitUs.Count() - waitBase; waits != 1 {
		t.Errorf("spatialdb_cut_wait_us observed %d waits, want 1: the cut behind the last stripe's store", waits)
	}
	final := db.Snapshot()
	defer final.Close()
	if n := len(snapLive(final, lateID, t0)); n != 1 {
		t.Errorf("late: %d rows in a cut taken after its insert returned, want 1", n)
	}
}
