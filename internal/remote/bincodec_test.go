package remote

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

func binTestReadings() []model.Reading {
	at := time.Date(2026, 8, 8, 9, 30, 0, 123456789, time.UTC)
	return []model.Reading{
		{ // coordinate fix with radius
			SensorID: "ubi-1", SensorType: "ubisense", MObjectID: "alice",
			Location:        glob.MustParse("CS/Floor3/(370,15)"),
			DetectionRadius: 0.15, Time: at,
		},
		{ // symbolic, no coords
			SensorID: "rf-2", SensorType: "rfbadge", MObjectID: "bob",
			Location: glob.MustParse("CS/Floor3/Room3230"), Time: at.Add(time.Second),
		},
		{ // 3D coordinate, unicode object name
			SensorID: "gps-3", SensorType: "gps", MObjectID: "búho",
			Location: glob.MustParse("Campus/(88.5,-12.25,3.5)"),
			Time:     at.Add(2 * time.Second),
		},
	}
}

// TestReadingsBinSizeMatchesEncoding: the credit accounting depends on
// ReadingsBinSize being exactly len(AppendReadings) — the client
// charges the computed size, the daemon grants back the received
// payload length, and any drift would leak or strand credits.
func TestReadingsBinSizeMatchesEncoding(t *testing.T) {
	cases := [][]model.Reading{
		nil,
		{},
		binTestReadings(),
		binTestReadings()[:1],
		{{Location: glob.MustParse("X/(0,0)")}}, // empty strings, zero time
	}
	for i, rs := range cases {
		enc := AppendReadings(nil, rs)
		if got, want := ReadingsBinSize(rs), len(enc); got != want {
			t.Errorf("case %d: ReadingsBinSize = %d, encoded length = %d", i, got, want)
		}
	}
}

// TestReadingsRoundTrip: every field survives the binary codec,
// including sub-second timestamps and 3D coordinates.
func TestReadingsRoundTrip(t *testing.T) {
	in := binTestReadings()
	dec, frameIdx, rejected, err := DecodeReadings(AppendReadings(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(rejected) != 0 {
		t.Fatalf("rejected = %+v", rejected)
	}
	if len(dec) != len(in) {
		t.Fatalf("decoded %d readings, want %d", len(dec), len(in))
	}
	for i := range in {
		if frameIdx[i] != i {
			t.Errorf("frameIdx[%d] = %d", i, frameIdx[i])
		}
		if !dec[i].Time.Equal(in[i].Time) {
			t.Errorf("reading %d time = %v, want %v", i, dec[i].Time, in[i].Time)
		}
		// Normalize times for the deep compare (Equal vs. ==).
		dec[i].Time = in[i].Time
		if !reflect.DeepEqual(dec[i], in[i]) {
			t.Errorf("reading %d = %+v, want %+v", i, dec[i], in[i])
		}
	}
}

// TestDecodeReadingsRejectsBadGLOB: a hand-crafted payload whose GLOB
// violates the text parser's invariants is rejected per reading — the
// binary path cannot smuggle in segments glob.Parse would refuse.
func TestDecodeReadingsRejectsBadGLOB(t *testing.T) {
	good := binTestReadings()[:1]
	bad := model.Reading{
		SensorID: "s", SensorType: "t", MObjectID: "o",
		Location: glob.GLOB{Path: []string{"has space"}}, // invalid segment
		Time:     time.Unix(0, 0),
	}
	payload := AppendReadings(nil, append(append([]model.Reading{}, good...), bad))
	rs, frameIdx, rejected, err := DecodeReadings(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || len(frameIdx) != 1 || frameIdx[0] != 0 {
		t.Fatalf("decoded = %d readings (idx %v), want just the good one", len(rs), frameIdx)
	}
	if len(rejected) != 1 || rejected[0].Index != 1 {
		t.Fatalf("rejected = %+v, want index 1", rejected)
	}
	if !strings.Contains(rejected[0].Error, "segment") {
		t.Errorf("rejection reason = %q", rejected[0].Error)
	}
}

// TestDecodeReadingsTrailingGarbage: extra bytes after the last
// reading mean the payload is corrupt, not silently ignored.
func TestDecodeReadingsTrailingGarbage(t *testing.T) {
	payload := append(AppendReadings(nil, binTestReadings()), 0xFF)
	if _, _, _, err := DecodeReadings(payload); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

// TestNotificationRoundTrip: the binary push decodes into the DTO the
// client hands applications, with the time in RFC 3339 at full
// precision so the client replay guard's fingerprint (Time|Prob|Band)
// is exact.
func TestNotificationRoundTrip(t *testing.T) {
	at := time.Date(2026, 8, 8, 10, 0, 0, 987654321, time.UTC)
	n := core.Notification{
		SubscriptionID: "sub-7", Object: "alice",
		Region: geom.Rect{Min: geom.Pt(1, 2), Max: geom.Pt(3, 4)},
		Prob:   0.875, Band: fusion.Band(2), At: at, Trace: "tr-1",
	}
	dec, err := decodeNotification(appendNotification(nil, n))
	if err != nil {
		t.Fatal(err)
	}
	want := NotificationDTO{
		SubscriptionID: "sub-7", Object: "alice",
		Region: RectDTO{MinX: 1, MinY: 2, MaxX: 3, MaxY: 4},
		Prob:   0.875, Band: fusion.Band(2).String(),
		Time: "2026-08-08T10:00:00.987654321Z", Trace: "tr-1",
	}
	if !reflect.DeepEqual(dec, want) {
		t.Errorf("binary notification = %+v, want %+v", dec, want)
	}
}

// TestStreamAckRoundTrip covers the remaining ack fields end to end.
func TestStreamAckRoundTrip(t *testing.T) {
	in := streamAckDTO{
		Accepted: 129, BatchAccepted: 64,
		Rejected:      []RejectedReadingDTO{{Index: 3, Error: "unknown sensor"}, {Index: 9, Error: "bad glob"}},
		CreditBatches: 1, CreditBytes: 4096, Error: "",
	}
	out, err := decodeStreamAck(appendStreamAck(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("ack round trip = %+v, want %+v", out, in)
	}
}

// TestRegionQueryRoundTrip covers the query-payload codecs.
func TestRegionQueryRoundTrip(t *testing.T) {
	in := fed.RegionQuery{Object: "alice", Region: "CS/Floor3/NetLab", MinProb: 0.25}
	out, err := fed.DecodeRegionQuery(fed.AppendRegionQuery(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("region query round trip = %+v, want %+v", out, in)
	}
	objs := map[string]float64{"alice": 0.9, "bob": 0.4}
	dec, err := fed.DecodeObjectsReply(fed.AppendObjectsReply(nil, objs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, objs) {
		t.Errorf("objects reply round trip = %v, want %v", dec, objs)
	}
	pr, err := decodeProbReply(appendProbReply(nil, 0.75, "high"))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Prob != 0.75 || pr.Band != "high" {
		t.Errorf("prob reply = %+v", pr)
	}
}
