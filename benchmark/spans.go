package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary: the generator's operations during a traced window, and
// every call of the layer walk. Spans of one batch (or one query)
// share Trace; Parent indexes the span that caused this one, -1 for a
// root.
type span struct {
	Name    string `json:"name"`
	Trace   uint64 `json:"trace"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"` // since the log was opened
	EndNs   int64  `json:"endNs"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its index, -1 on a nil log.
func (l *spanLog) add(name string, trace uint64, parent int, start, end time.Time) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		Name: name, Trace: trace, Parent: parent,
		StartNs: start.Sub(l.t0).Nanoseconds(), EndNs: end.Sub(l.t0).Nanoseconds(),
	})
	return len(l.spans) - 1
}

// addDur records a span known by its duration rather than its
// interval: the layer walk times a parent call and its inner call in
// separate executions on the same batch, and links the inner one as
// the child so that self time comes out as outer minus inner.
func (l *spanLog) addDur(name string, trace uint64, parent int, d time.Duration) int {
	now := time.Now()
	return l.add(name, trace, parent, now.Add(-d), now)
}

// spanTotals is one span name's aggregate: how many, their summed
// duration, and the summed self time (duration minus the children's).
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalUs float64 `json:"totalUs"`
	SelfUs  float64 `json:"selfUs"`
}

func (l *spanLog) totals() []spanTotals {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := make(map[string]*spanTotals)
	for i, s := range l.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		d := s.EndNs - s.StartNs
		t.Count++
		t.TotalUs += float64(d) / 1e3
		t.SelfUs += float64(d-child[i]) / 1e3
	}
	out := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write stores the spans and their totals as JSON.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	totals := l.totals()
	l.mu.Lock()
	body, err := json.Marshal(struct {
		Totals []spanTotals `json:"totals"`
		Spans  []span       `json:"spans"`
	}{totals, l.spans})
	l.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}
