// Fuzz targets for the binary payload codecs: a malformed payload
// must produce an error (or per-reading rejections), never a panic or
// an over-read. Seed corpora live in testdata/fuzz/<Target>/;
// regenerate with MW_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus.
package remote

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/fusion"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

func fuzzSampleReadings() []model.Reading {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return []model.Reading{
		{
			SensorID: "ubi-1", SensorType: "ubisense", MObjectID: "alice",
			Location:        glob.MustParse("CS/Floor3/(370,15)"),
			DetectionRadius: 0.15, Time: t0,
		},
		{
			SensorID: "rf-2", SensorType: "rfbadge", MObjectID: "bob",
			Location: glob.MustParse("CS/Floor3/Room3230"),
			Time:     t0.Add(time.Second),
		},
	}
}

func readingsSeeds() [][]byte {
	full := AppendReadings(nil, fuzzSampleReadings())
	return [][]byte{
		full,
		full[:len(full)/2], // truncated mid-reading
		AppendReadings(nil, nil),
		{},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // absurd count
	}
}

func ackSeeds() [][]byte {
	return [][]byte{
		appendStreamAck(nil, streamAckDTO{
			Accepted: 42, BatchAccepted: 7,
			Rejected:      []RejectedReadingDTO{{Index: 3, Error: "unknown sensor"}},
			CreditBatches: 1, CreditBytes: 512,
		}),
		appendStreamAck(nil, streamAckDTO{Error: "corrupt batch"}),
		{},
	}
}

// FuzzDecodeReadings covers the hot stream/batch payload decoder.
func FuzzDecodeReadings(f *testing.F) {
	for _, s := range readingsSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, frameIdx, rejected, err := DecodeReadings(data)
		if err != nil {
			return
		}
		if len(frameIdx) != len(rs) {
			t.Fatalf("frameIdx len %d != readings len %d", len(frameIdx), len(rs))
		}
		// Whatever decoded must re-encode and decode back to the same
		// shape: the codec is self-consistent, not just crash-free.
		re := AppendReadings(nil, rs)
		rs2, _, rej2, err2 := DecodeReadings(re)
		if err2 != nil {
			t.Fatalf("re-encode of a decoded batch failed to decode: %v", err2)
		}
		if len(rs2) != len(rs) || len(rej2) != 0 {
			t.Fatalf("round trip changed shape: %d->%d readings, %d new rejects",
				len(rs), len(rs2), len(rej2))
		}
		_ = rejected
	})
}

// FuzzDecodeStreamAck covers the acknowledgement decoder (which the
// client runs on its reader goroutine — a panic there kills the
// connection).
func FuzzDecodeStreamAck(f *testing.F) {
	for _, s := range ackSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := decodeStreamAck(data)
		if err != nil {
			return
		}
		re := appendStreamAck(nil, a)
		a2, err2 := decodeStreamAck(re)
		if err2 != nil {
			t.Fatalf("re-encode of a decoded ack failed to decode: %v", err2)
		}
		if a2.Accepted != a.Accepted || a2.BatchAccepted != a.BatchAccepted ||
			len(a2.Rejected) != len(a.Rejected) || a2.Error != a.Error {
			t.Fatalf("ack round trip drifted: %+v -> %+v", a, a2)
		}
	})
}

// FuzzDecodeNotification covers the binary push decoder.
func FuzzDecodeNotification(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeNotification(data)
	})
}

// FuzzDecodeIngestReply covers the batched-ingest reply decoder.
func FuzzDecodeIngestReply(f *testing.F) {
	f.Add(AppendIngestReply(nil, IngestBatchReply{
		Accepted: 3,
		Rejected: []RejectedReadingDTO{{Index: 1, Error: "bad time"}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeIngestReply(data)
	})
}

func regionQuerySeeds() [][]byte {
	full := fed.AppendRegionQuery(nil, fed.RegionQuery{
		Object: "alice", Region: "CS/Floor3/NetLab", MinProb: 0.3,
	})
	return [][]byte{
		full,
		full[:len(full)-3], // truncated MinProb
		fed.AppendRegionQuery(nil, fed.RegionQuery{}),
		{},
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // absurd string length
	}
}

func queryReplySeeds() [][]byte {
	objs := fed.AppendObjectsReply(nil, map[string]float64{"alice": 0.9, "bob": 0.4})
	loc := appendLocation(nil, core.Location{
		Object: "carol", Rect: geom.R(109.5, 34.5, 110.5, 35.5), Prob: 0.86,
		Band:       fusion.BandHigh,
		Symbolic:   glob.MustParse("CS/Floor3/MainCorridor"),
		Coordinate: glob.CoordinateRect(glob.Symbolic("CS"), geom.R(109.5, 34.5, 110.5, 35.5)),
		Support:    []string{"ubi"}, Discarded: []string{"rf", "card-3105"},
		At: time.Date(2026, 8, 8, 12, 0, 0, 5, time.UTC),
	})
	return [][]byte{
		appendProbReply(nil, 0.75, "high"),
		objs,
		objs[:len(objs)-5], // truncated mid-entry
		fed.AppendObjectsReply(nil, nil),
		{},
		loc,
		loc[:len(loc)-4], // truncated time
		appendLocation(nil, core.Location{Object: "far"}), // no regions, no readings
	}
}

// locationOf is the core.Location that appendLocation encodes as d: a
// one-segment GLOB formats as its segment verbatim, and the band and
// time strings parse back to the values decodeLocation formatted.
func locationOf(t *testing.T, d LocationDTO) core.Location {
	l := core.Location{
		Object: d.Object,
		Rect:   geom.Rect{Min: geom.Pt(d.Rect.MinX, d.Rect.MinY), Max: geom.Pt(d.Rect.MaxX, d.Rect.MaxY)},
		Prob:   d.Prob, Band: bandFromString(d.Band),
		Support: d.Support, Discarded: d.Discarded,
	}
	if d.Symbolic != "" {
		l.Symbolic = glob.GLOB{Path: []string{d.Symbolic}}
	}
	if d.Coordinate != "" {
		l.Coordinate = glob.GLOB{Path: []string{d.Coordinate}}
	}
	at, err := time.Parse(time.RFC3339Nano, d.Time)
	if err != nil {
		t.Fatalf("decoded time %q does not parse: %v", d.Time, err)
	}
	l.At = at
	return l
}

// sameF64 compares floats bit for bit, so a fuzzed NaN round-trips.
func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameLocation compares two decoded Locate replies, floats bit for bit.
func sameLocation(a, b LocationDTO) bool {
	if !sameF64(a.Rect.MinX, b.Rect.MinX) || !sameF64(a.Rect.MinY, b.Rect.MinY) ||
		!sameF64(a.Rect.MaxX, b.Rect.MaxX) || !sameF64(a.Rect.MaxY, b.Rect.MaxY) ||
		!sameF64(a.Prob, b.Prob) {
		return false
	}
	a.Rect, a.Prob, b.Rect, b.Prob = RectDTO{}, 0, RectDTO{}, 0
	return reflect.DeepEqual(a, b)
}

// FuzzDecodeRegionQuery covers the daemon-side decoder of binary
// mw.probInRegion / mw.objectsInRegion requests (socket bytes).
func FuzzDecodeRegionQuery(f *testing.F) {
	for _, s := range regionQuerySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := fed.DecodeRegionQuery(data)
		if err != nil {
			return
		}
		a2, err := fed.DecodeRegionQuery(fed.AppendRegionQuery(nil, a))
		if err != nil {
			t.Fatalf("re-encode of a decoded query failed to decode: %v", err)
		}
		if a2.Object != a.Object || a2.Region != a.Region || !sameF64(a2.MinProb, a.MinProb) {
			t.Fatalf("query round trip drifted: %+v -> %+v", a, a2)
		}
	})
}

// FuzzDecodeQueryReplies covers the client-side decoders of binary
// Locate and region-query replies, which run on reply bytes from the
// daemon. Every input goes through all three: the payload carries no
// type tag.
func FuzzDecodeQueryReplies(f *testing.F) {
	for _, s := range queryReplySeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if l, err := decodeLocation(data); err == nil {
			l2, err := decodeLocation(appendLocation(nil, locationOf(t, l)))
			if err != nil || !sameLocation(l2, l) {
				t.Fatalf("locate reply round trip drifted: %+v -> %+v (%v)", l, l2, err)
			}
		}
		if p, err := decodeProbReply(data); err == nil {
			p2, err := decodeProbReply(appendProbReply(nil, p.Prob, p.Band))
			if err != nil || !sameF64(p2.Prob, p.Prob) || p2.Band != p.Band {
				t.Fatalf("prob reply round trip drifted: %+v -> %+v (%v)", p, p2, err)
			}
		}
		objs, err := fed.DecodeObjectsReply(data)
		if err != nil {
			return
		}
		objs2, err := fed.DecodeObjectsReply(fed.AppendObjectsReply(nil, objs))
		if err != nil || len(objs2) != len(objs) {
			t.Fatalf("objects reply round trip drifted: %d -> %d entries (%v)", len(objs), len(objs2), err)
		}
		for k, v := range objs {
			if v2, ok := objs2[k]; !ok || !sameF64(v2, v) {
				t.Fatalf("objects reply round trip drifted at %q: %v -> %v", k, v, v2)
			}
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpora; gated so
// a normal run never writes to the tree.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("MW_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set MW_WRITE_FUZZ_CORPUS=1 to regenerate seed corpora")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzDecodeReadings", readingsSeeds())
	write("FuzzDecodeStreamAck", ackSeeds())
	write("FuzzDecodeRegionQuery", regionQuerySeeds())
	write("FuzzDecodeQueryReplies", queryReplySeeds())
}
