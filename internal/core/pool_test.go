package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/obs"
)

// TestWorkerPoolFanOutDuringClose is the regression test for the
// orphaned-task hang: a task that slipped into the buffered queue
// after the workers' stop-drain would leave the fan-out's WaitGroup
// blocked forever. With submission ordered against close, every
// accepted task runs and the fan-out always returns.
func TestWorkerPoolFanOutDuringClose(t *testing.T) {
	for round := 0; round < 50; round++ {
		p := newWorkerPool(4)
		var ran atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				p.fanOutChunked(8, 8, func(int) { ran.Add(1) })
			}()
		}
		close(start)
		p.close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: fan-out deadlocked against close", round)
		}
		if got := ran.Load(); got != 4*8 {
			t.Fatalf("round %d: ran %d tasks, want %d", round, got, 4*8)
		}
	}
}

// TestWorkerPoolFanOutAfterClose: submissions on a closed pool run
// inline and still complete every task.
func TestWorkerPoolFanOutAfterClose(t *testing.T) {
	p := newWorkerPool(2)
	p.close()
	var ran atomic.Int64
	p.fanOutChunked(16, 16, func(int) { ran.Add(1) })
	if got := ran.Load(); got != 16 {
		t.Fatalf("ran %d tasks after close, want 16", got)
	}
}

// TestIngestBatchCutsNoSnapshot: a batch with firings for several
// objects evaluates each firing from the rows its own insert stored,
// so ingest never cuts a database snapshot, whatever the pool size.
func TestIngestBatchCutsNoSnapshot(t *testing.T) {
	clock := &testClock{now: t0}
	s, err := New(building.PaperFloor(), WithClock(clock.Now), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.RegisterSensor("ubi-1", model.UbisenseSpec(0.9)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	notified := make(map[string]bool)
	if _, err := s.Subscribe(Subscription{
		Region: glob.MustParse("CS/Floor3/NetLab"),
		Handler: func(n Notification) {
			mu.Lock()
			notified[n.Object] = true
			mu.Unlock()
		},
	}); err != nil {
		t.Fatal(err)
	}
	var batch []model.Reading
	for i, obj := range []string{"a", "b", "c", "a", "b", "c"} {
		batch = append(batch, model.Reading{
			SensorID:  "ubi-1",
			MObjectID: obj,
			Location:  glob.CoordinatePoint(glob.MustParse("CS/Floor3"), geom.Pt(float64(365+i), 15)),
			Time:      t0,
		})
	}
	cuts := obs.Default().Counter("spatialdb_snapshots_total")
	before := cuts.Value()
	if err := s.IngestBatch(batch); err != nil {
		t.Fatal(err)
	}
	if after := cuts.Value(); after != before {
		t.Errorf("IngestBatch cut %d snapshots, want none", after-before)
	}
	s.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if len(notified) != 3 {
		t.Errorf("notified objects %v, want a, b and c", notified)
	}
}
