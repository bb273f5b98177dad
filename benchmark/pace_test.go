package main

import (
	"testing"
	"time"
)

// fakeClock is a manual clock whose sleep oversleeps by a fixed amount.
type fakeClock struct {
	t         time.Time
	oversleep time.Duration
}

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleep(d time.Duration) {
	c.t = c.t.Add(d + c.oversleep)
}

func TestPacerTimesFromDueAndReportsLag(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{t: start, oversleep: 200 * time.Microsecond}
	p := newPacer(start, 100) // every 10ms
	p.now, p.sleep = clk.now, clk.sleep

	// Operation 0 is due at once; no sleep, no lag.
	if due := p.next(); !due.Equal(start) {
		t.Fatalf("op 0 due %v, want %v", due, start)
	}
	// The program answers in 3ms: op 1 waits for its slot and the
	// generator's only lateness is the oversleep.
	clk.t = clk.t.Add(3 * time.Millisecond)
	due := p.next()
	if want := start.Add(10 * time.Millisecond); !due.Equal(want) {
		t.Fatalf("op 1 due %v, want %v", due, want)
	}
	if got := clk.t.Sub(due); got != 200*time.Microsecond {
		t.Fatalf("op 1 started %v after due, want the 200µs oversleep", got)
	}
	// The program stalls for 35ms: ops 2, 3 and 4 are already due when
	// it returns. The pacer neither waits nor skips, and their due
	// times stay on the original grid, so latency from due counts the
	// stall; the generator itself was not late.
	clk.t = clk.t.Add(35 * time.Millisecond)
	for i := 2; i <= 4; i++ {
		before := clk.t
		due = p.next()
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("op %d due %v, want %v", i, due, want)
		}
		if !clk.t.Equal(before) {
			t.Fatalf("op %d slept although it was late", i)
		}
		if !clk.t.After(due) {
			t.Fatalf("op %d not late: now %v due %v", i, clk.t, due)
		}
	}
	want := []float64{0, 200, 0, 0, 0}
	if p.lag.n() != len(want) {
		t.Fatalf("lag has %d samples, want %d", p.lag.n(), len(want))
	}
	for i, w := range want {
		if p.lag.us[i] != w {
			t.Errorf("lag[%d] = %vµs, want %v", i, p.lag.us[i], w)
		}
	}
}

func TestProbeMatcherFIFO(t *testing.T) {
	m := newProbeMatcher()
	t0 := time.Unix(2000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Three probes for one object, 100ms apart; each notification is
	// evaluated 2ms after its send and received 3ms after its due time.
	for k := 0; k < 3; k++ {
		m.sent("probe-0", at(100*k), at(100*k))
		if _, ok := m.notified("stream", "probe-0", at(100*k+2), at(100*k+3)); !ok {
			t.Fatalf("probe %d not matched", k)
		}
	}
	s := m.take("stream")
	if s.n() != 3 || m.lost != 0 || m.spurious != 0 {
		t.Fatalf("n=%d lost=%d spurious=%d, want 3 0 0", s.n(), m.lost, m.spurious)
	}
	for _, us := range s.us {
		if us != 3000 {
			t.Errorf("latency %vµs, want 3000", us)
		}
	}
}

// A dropped notification must cost exactly one failure. Matching the
// next notification to the oldest waiting probe instead would report
// no failure and inflate every later sample by a probe period.
func TestProbeMatcherSurvivesDroppedNotification(t *testing.T) {
	m := newProbeMatcher()
	t0 := time.Unix(3000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	for k := 0; k < 5; k++ {
		m.sent("probe-0", at(100*k), at(100*k))
		if k == 1 {
			continue // probe 1's notification is lost
		}
		if _, ok := m.notified("stream", "probe-0", at(100*k+2), at(100*k+3)); !ok {
			t.Fatalf("probe %d not matched", k)
		}
	}
	s := m.take("stream")
	if s.n() != 4 {
		t.Fatalf("%d samples, want 4", s.n())
	}
	for i, us := range s.us {
		if us != 3000 {
			t.Errorf("sample %d is %vµs, want 3000 (shifted onto the dropped probe?)", i, us)
		}
	}
	if m.lost != 1 || m.spurious != 0 || m.outstanding() != 0 {
		t.Errorf("lost=%d spurious=%d outstanding=%d, want 1 0 0", m.lost, m.spurious, m.outstanding())
	}
	// A notification nothing explains is counted, not matched.
	if _, ok := m.notified("stream", "probe-0", at(900), at(901)); ok || m.spurious != 1 {
		t.Errorf("unexplained notification: ok=%v spurious=%d, want false 1", ok, m.spurious)
	}
	// Objects are independent, and a slow notification still finds its
	// own probe while a newer one for another object is waiting.
	m.sent("probe-1", at(1000), at(1000))
	m.sent("probe-2", at(1010), at(1010))
	if due, ok := m.notified("stream", "probe-1", at(1050), at(1051)); !ok || !due.Equal(at(1000)) {
		t.Errorf("probe-1 matched due=%v ok=%v", due, ok)
	}
	if m.outstanding() != 1 {
		t.Errorf("outstanding=%d, want probe-2 still waiting", m.outstanding())
	}
}
