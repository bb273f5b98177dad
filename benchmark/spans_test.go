package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSpanSelfTimeIsDurationMinusChildren(t *testing.T) {
	var none *spanLog
	if id := none.add("x", 0, -1, time.Now(), time.Now()); id != -1 || none.totals() != nil {
		t.Fatalf("nil log recorded something")
	}

	l := newSpanLog()
	t0 := l.t0
	ms := func(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }
	root := l.add("client.batch", 7, -1, ms(0), ms(10))
	l.add("client.send", 7, root, ms(0), ms(2))
	l.add("client.ack_wait", 7, root, ms(2), ms(9))
	// A child known only by its duration (the walk's separately timed
	// inner call).
	outer := l.add("core.IngestBatch", 8, -1, ms(20), ms(26))
	l.addDur("spatialdb.InsertReadings", 8, outer, 4*time.Millisecond)

	got := make(map[string]spanTotals)
	for _, tot := range l.totals() {
		got[tot.Name] = tot
	}
	for name, want := range map[string]spanTotals{
		"client.batch":             {Count: 1, TotalUs: 10000, SelfUs: 1000},
		"client.ack_wait":          {Count: 1, TotalUs: 7000, SelfUs: 7000},
		"core.IngestBatch":         {Count: 1, TotalUs: 6000, SelfUs: 2000},
		"spatialdb.InsertReadings": {Count: 1, TotalUs: 4000, SelfUs: 4000},
	} {
		g := got[name]
		if g.Count != want.Count || !approx(g.TotalUs, want.TotalUs) || !approx(g.SelfUs, want.SelfUs) {
			t.Errorf("%s: %+v, want %+v", name, g, want)
		}
	}

	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Spans) != 5 || file.Spans[1].Parent != root || file.Spans[1].Trace != 7 {
		t.Errorf("written spans: %+v", file.Spans)
	}
}
