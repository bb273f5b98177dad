package main

import (
	"testing"
	"time"
)

func TestWatchdogFiresOnlyWithoutProgress(t *testing.T) {
	stalled := make(chan struct{})
	w := startWatchdog(time.Second, func() { close(stalled) })
	defer w.close()
	// Progress keeps it quiet for longer than the timeout.
	for end := time.Now().Add(1500 * time.Millisecond); time.Now().Before(end); {
		w.tick()
		select {
		case <-stalled:
			t.Fatal("watchdog fired while operations were completing")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// Then nothing completes.
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		t.Fatal("watchdog did not fire after progress stopped")
	}
	if w.goroutines.Load() < 1 {
		t.Errorf("goroutine peak %d, want at least 1", w.goroutines.Load())
	}
}
