package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// stallTimeout is how long a workload may go without acking a reading
// or completing a query before it is declared hung.
const stallTimeout = 10 * time.Second

// watchdog turns a hang of the program under test into a prompt,
// visible failure. Generator goroutines call tick on every completed
// operation; if none completes for the timeout, onStall runs (by
// default: every goroutine's stack to stderr, then a non-zero exit —
// a goroutine parked inside the program cannot be cancelled, so the
// process is the unit that fails). It also samples the goroutine count
// for the runtime ledger while it is there.
type watchdog struct {
	ticks      atomic.Int64
	goroutines atomic.Int64 // peak seen
	stop, done chan struct{}
}

func startWatchdog(timeout time.Duration, onStall func()) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		poll := time.NewTicker(timeout / 100)
		defer poll.Stop()
		last, lastChange := w.ticks.Load(), time.Now()
		for {
			select {
			case <-w.stop:
				return
			case now := <-poll.C:
				if n := int64(runtime.NumGoroutine()); n > w.goroutines.Load() {
					w.goroutines.Store(n)
				}
				if t := w.ticks.Load(); t != last {
					last, lastChange = t, now
				} else if now.Sub(lastChange) >= timeout {
					onStall()
					return
				}
			}
		}
	}()
	return w
}

func (w *watchdog) tick() { w.ticks.Add(1) }

func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// dieOnStall is the production onStall.
func dieOnStall(workload string) func() {
	return func() {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s made no progress for %v; goroutine stacks follow\n",
			workload, stallTimeout)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		fmt.Fprintf(os.Stderr, "benchmark: workload %s FAILED (hung)\n", workload)
		os.Exit(3)
	}
}
