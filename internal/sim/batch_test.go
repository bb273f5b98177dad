package sim

import (
	"testing"

	"middlewhere/internal/adapter"
	"middlewhere/internal/core"
	"middlewhere/internal/glob"
)

// TestRunBatchedMatchesDirect runs the same seeded simulation twice —
// once with adapters feeding the service directly, once through a
// Batcher flushed after each step — and requires identical fused
// answers. Batching is a transport optimization; it must not change
// what the Location Service believes.
func TestRunBatchedMatchesDirect(t *testing.T) {
	b := synthetic(t)
	frame := glob.MustParse("SIM/F")

	run := func(batched bool) (*core.Service, []PersonState) {
		s, err := New(b, Config{People: 3, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		svc, err := core.New(b, core.WithClock(s.Now))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)

		var sink adapter.Sink = svc
		var flusher *adapter.Batcher
		if batched {
			flusher = adapter.NewBatcher(svc, 0)
			sink = flusher
		}
		ubi, err := adapter.NewUbisense("ubi-1", frame, 1.0, sink, svc, adapter.Options{})
		if err != nil {
			t.Fatal(err)
		}
		field := NewUbisenseField(ubi, b.Universe, 1.0, s.Rand())

		const steps = 50
		if batched {
			for i := 0; i < steps; i++ {
				if err := Run(s, 1, field); err != nil {
					t.Fatal(err)
				}
				if err := flusher.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if flusher.Pending() != 0 {
				t.Errorf("batcher left %d readings pending", flusher.Pending())
			}
		} else {
			if err := Run(s, steps, field); err != nil {
				t.Fatal(err)
			}
		}
		return svc, s.People()
	}

	direct, people := run(false)
	batched, _ := run(true)

	if d, b := direct.Health().Ingested, batched.Health().Ingested; d != b || d == 0 {
		t.Fatalf("ingested diverged: direct %d, batched %d", d, b)
	}
	for _, p := range people {
		dl, derr := direct.LocateObject(p.ID)
		bl, berr := batched.LocateObject(p.ID)
		if (derr == nil) != (berr == nil) {
			t.Errorf("%s: direct err %v, batched err %v", p.ID, derr, berr)
			continue
		}
		if derr != nil {
			continue
		}
		if dl.Rect != bl.Rect || dl.Prob != bl.Prob {
			t.Errorf("%s: direct %+v != batched %+v", p.ID, dl, bl)
		}
	}
}

// TestRunBatchedFlushesPerStep: a Batcher flushed after each step's
// observations holds nothing back — by the end of every step the
// service has stored each reading the adapter forwarded.
func TestRunBatchedFlushesPerStep(t *testing.T) {
	b := synthetic(t)
	s, err := New(b, Config{People: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := core.New(b, core.WithClock(s.Now))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	batcher := adapter.NewBatcher(svc, 0)
	ubi, err := adapter.NewUbisense("ubi-1", glob.MustParse("SIM/F"), 1.0, batcher, svc, adapter.Options{})
	if err != nil {
		t.Fatal(err)
	}
	field := NewUbisenseField(ubi, b.Universe, 1.0, s.Rand())
	for i := 0; i < 7; i++ {
		if err := Run(s, 1, field); err != nil {
			t.Fatal(err)
		}
		if err := batcher.Flush(); err != nil {
			t.Fatal(err)
		}
		forwarded, _ := ubi.Stats()
		if n := batcher.Pending(); n != 0 {
			t.Errorf("step %d: %d readings still pending after the flush", i, n)
		}
		if got := svc.Health().Ingested; got != uint64(forwarded) || got == 0 {
			t.Errorf("step %d: service stored %d readings, adapter forwarded %d", i, got, forwarded)
		}
	}
}
