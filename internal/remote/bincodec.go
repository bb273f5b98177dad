// Binary payload codecs for the hot remote frames: batched/streamed
// ingest, trigger-notification pushes, Locate, probability replies,
// and stream acknowledgements (the region-query request and the
// objects reply live in fed, whose fan-out sends them). mwrpc carries
// every payload as bytes; the control-plane methods keep JSON DTOs.
//
// The encoders append into caller-owned buffers (mwrpc's pooled frame
// buffer on the send path, so steady-state encode allocates nothing)
// and work straight off model.Reading — no DTO slice, no RFC 3339
// formatting, no glob re-parse on the far side. GLOBs travel
// structurally (path segments + coordinate tuples); the decoder
// re-checks glob.Parse's segment invariants so a hand-crafted frame
// cannot smuggle in a GLOB the text parser would reject.
//
// Decoders never panic and never over-read: all cursor movement goes
// through mwrpc.BinReader, whose errors distinguish structural
// corruption (mwrpc.ErrTruncated / mwrpc.ErrCorrupt — the whole
// payload is dropped) from per-reading validation failures (that one
// reading is rejected, the rest of the batch proceeds).
package remote

import (
	"errors"
	"fmt"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"middlewhere/internal/core"
	"middlewhere/internal/fusion"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

// structural reports whether a decode error means the payload itself
// is broken (abort) rather than one reading being invalid (reject).
func structural(err error) bool {
	return errors.Is(err, mwrpc.ErrTruncated) || errors.Is(err, mwrpc.ErrCorrupt)
}

// uvarintLen is the encoded size of v in unsigned LEB128.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// ---------------------------------------------------------------------------
// GLOB

// appendGLOB writes a GLOB structurally: path segment count + segments,
// coordinate count + tuples (flags byte, x, y, optional z).
func appendGLOB(b []byte, g glob.GLOB) []byte {
	b = mwrpc.AppendUvarint(b, uint64(len(g.Path)))
	for _, seg := range g.Path {
		b = mwrpc.AppendString(b, seg)
	}
	b = mwrpc.AppendUvarint(b, uint64(len(g.Coords)))
	for _, c := range g.Coords {
		if c.Has3D {
			b = append(b, 1)
			b = mwrpc.AppendF64(b, c.X)
			b = mwrpc.AppendF64(b, c.Y)
			b = mwrpc.AppendF64(b, c.Z)
		} else {
			b = append(b, 0)
			b = mwrpc.AppendF64(b, c.X)
			b = mwrpc.AppendF64(b, c.Y)
		}
	}
	return b
}

func globBinSize(g glob.GLOB) int {
	n := uvarintLen(uint64(len(g.Path))) + uvarintLen(uint64(len(g.Coords)))
	for _, seg := range g.Path {
		n += uvarintLen(uint64(len(seg))) + len(seg)
	}
	for _, c := range g.Coords {
		n += 1 + 16
		if c.Has3D {
			n += 8
		}
	}
	return n
}

// validSegment re-checks glob.Parse's segment invariants on decode.
func validSegment(seg string) error {
	if seg == "" {
		return fmt.Errorf("%w: empty segment", glob.ErrBadSegment)
	}
	if strings.ContainsAny(seg, "()/") {
		return fmt.Errorf("%w: segment %q", glob.ErrBadSegment, seg)
	}
	for _, r := range seg {
		if unicode.IsSpace(r) || unicode.IsControl(r) || r == unicode.ReplacementChar {
			return fmt.Errorf("%w: segment %q", glob.ErrBadSegment, seg)
		}
	}
	if !utf8.ValidString(seg) {
		return fmt.Errorf("%w: segment not UTF-8", glob.ErrBadSegment)
	}
	return nil
}

// readGLOB decodes a structural GLOB. Structural errors come back as
// mwrpc.ErrTruncated/ErrCorrupt; invariant violations as glob errors.
func readGLOB(r *mwrpc.BinReader) (glob.GLOB, error) {
	var g glob.GLOB
	np, err := r.Len(1)
	if err != nil {
		return g, err
	}
	if np > 0 {
		g.Path = make([]string, 0, np)
		for i := 0; i < np; i++ {
			seg, err := r.String()
			if err != nil {
				return glob.GLOB{}, err
			}
			g.Path = append(g.Path, seg)
		}
	}
	nc, err := r.Len(17)
	if err != nil {
		return glob.GLOB{}, err
	}
	if nc > 0 {
		g.Coords = make([]glob.Coord, 0, nc)
		for i := 0; i < nc; i++ {
			if r.Remaining() < 1 {
				return glob.GLOB{}, mwrpc.ErrTruncated
			}
			flags, _ := r.Uvarint()
			var c glob.Coord
			if c.X, err = r.F64(); err != nil {
				return glob.GLOB{}, err
			}
			if c.Y, err = r.F64(); err != nil {
				return glob.GLOB{}, err
			}
			if flags&1 != 0 {
				c.Has3D = true
				if c.Z, err = r.F64(); err != nil {
					return glob.GLOB{}, err
				}
			}
			g.Coords = append(g.Coords, c)
		}
	}
	// Validation (non-structural): same invariants glob.Parse enforces.
	if len(g.Path) == 0 && len(g.Coords) == 0 {
		return glob.GLOB{}, glob.ErrEmpty
	}
	for _, seg := range g.Path {
		if err := validSegment(seg); err != nil {
			return glob.GLOB{}, err
		}
	}
	return g, nil
}

// ---------------------------------------------------------------------------
// Readings (mw.ingestBatch request / stream batch payload)

// AppendReadings encodes a reading slice as a binary batch payload.
// Exported for the wire benchmarks and fuzz seed generation.
func AppendReadings(b []byte, rs []model.Reading) []byte {
	b = mwrpc.AppendUvarint(b, uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		b = mwrpc.AppendString(b, r.SensorID)
		b = mwrpc.AppendString(b, r.SensorType)
		b = mwrpc.AppendString(b, r.MObjectID)
		b = mwrpc.AppendF64(b, r.DetectionRadius)
		b = mwrpc.AppendI64(b, r.Time.UnixNano())
		b = appendGLOB(b, r.Location)
	}
	return b
}

// ReadingsBinSize is the exact encoded size of AppendReadings(nil, rs);
// the streaming client charges this many byte credits per batch (and
// the daemon grants back the received payload length, which matches).
func ReadingsBinSize(rs []model.Reading) int {
	n := uvarintLen(uint64(len(rs)))
	for i := range rs {
		r := &rs[i]
		n += uvarintLen(uint64(len(r.SensorID))) + len(r.SensorID)
		n += uvarintLen(uint64(len(r.SensorType))) + len(r.SensorType)
		n += uvarintLen(uint64(len(r.MObjectID))) + len(r.MObjectID)
		n += 8 + 8
		n += globBinSize(r.Location)
	}
	return n
}

// DecodeReadings decodes a binary batch payload. Structural corruption
// returns an error (nothing usable); a reading that fails GLOB
// validation is reported in rejected (by frame index) while the rest
// decode on. frameIdx maps each returned reading back to its index in
// the frame, so the server can report rejections by frame position.
func DecodeReadings(payload []byte) (rs []model.Reading, frameIdx []int, rejected []RejectedReadingDTO, err error) {
	r := mwrpc.NewBinReader(payload)
	// A reading is at least 3 empty strings + radius + time + empty glob.
	n, err := r.Len(3 + 16 + 2)
	if err != nil {
		return nil, nil, nil, err
	}
	rs = make([]model.Reading, 0, n)
	frameIdx = make([]int, 0, n)
	for i := 0; i < n; i++ {
		var m model.Reading
		if m.SensorID, err = r.String(); err != nil {
			return nil, nil, nil, err
		}
		if m.SensorType, err = r.String(); err != nil {
			return nil, nil, nil, err
		}
		if m.MObjectID, err = r.String(); err != nil {
			return nil, nil, nil, err
		}
		if m.DetectionRadius, err = r.F64(); err != nil {
			return nil, nil, nil, err
		}
		var ns int64
		if ns, err = r.I64(); err != nil {
			return nil, nil, nil, err
		}
		m.Time = time.Unix(0, ns).UTC()
		g, gerr := readGLOB(r)
		if gerr != nil {
			if structural(gerr) {
				return nil, nil, nil, gerr
			}
			rejected = append(rejected, RejectedReadingDTO{
				Index: i, Error: fmt.Sprintf("remote: reading location: %v", gerr),
			})
			continue
		}
		m.Location = g
		rs = append(rs, m)
		frameIdx = append(frameIdx, i)
	}
	if r.Remaining() != 0 {
		return nil, nil, nil, mwrpc.ErrCorrupt
	}
	return rs, frameIdx, rejected, nil
}

// ---------------------------------------------------------------------------
// Ingest reply (mw.ingestBatch response / embedded in stream acks)

func appendRejected(b []byte, rejected []RejectedReadingDTO) []byte {
	b = mwrpc.AppendUvarint(b, uint64(len(rejected)))
	for _, rej := range rejected {
		b = mwrpc.AppendUvarint(b, uint64(rej.Index))
		b = mwrpc.AppendString(b, rej.Error)
	}
	return b
}

func readRejected(r *mwrpc.BinReader) ([]RejectedReadingDTO, error) {
	n, err := r.Len(2)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]RejectedReadingDTO, 0, n)
	for i := 0; i < n; i++ {
		idx, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		msg, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, RejectedReadingDTO{Index: int(idx), Error: msg})
	}
	return out, nil
}

// AppendIngestReply encodes an IngestBatchReply payload.
func AppendIngestReply(b []byte, rep IngestBatchReply) []byte {
	b = mwrpc.AppendUvarint(b, uint64(rep.Accepted))
	return appendRejected(b, rep.Rejected)
}

// DecodeIngestReply decodes an IngestBatchReply payload.
func DecodeIngestReply(payload []byte) (IngestBatchReply, error) {
	r := mwrpc.NewBinReader(payload)
	acc, err := r.Uvarint()
	if err != nil {
		return IngestBatchReply{}, err
	}
	rej, err := readRejected(r)
	if err != nil {
		return IngestBatchReply{}, err
	}
	return IngestBatchReply{Accepted: int(acc), Rejected: rej}, nil
}

// ---------------------------------------------------------------------------
// Notifications (mw.notify push)

// appendNotification encodes a trigger notification straight from the
// core form — the hot push path skips the DTO and its RFC 3339 string.
func appendNotification(b []byte, n core.Notification) []byte {
	b = mwrpc.AppendString(b, n.SubscriptionID)
	b = mwrpc.AppendString(b, n.Object)
	b = mwrpc.AppendF64(b, n.Region.Min.X)
	b = mwrpc.AppendF64(b, n.Region.Min.Y)
	b = mwrpc.AppendF64(b, n.Region.Max.X)
	b = mwrpc.AppendF64(b, n.Region.Max.Y)
	b = mwrpc.AppendF64(b, n.Prob)
	b = mwrpc.AppendUvarint(b, uint64(n.Band))
	b = mwrpc.AppendI64(b, n.At.UnixNano())
	b = mwrpc.AppendString(b, n.Trace)
	return b
}

// decodeNotification decodes a binary notification into the DTO form
// the client-side dispatch (and its replay guard) already speaks.
func decodeNotification(payload []byte) (NotificationDTO, error) {
	r := mwrpc.NewBinReader(payload)
	var n NotificationDTO
	var err error
	if n.SubscriptionID, err = r.String(); err != nil {
		return n, err
	}
	if n.Object, err = r.String(); err != nil {
		return n, err
	}
	if n.Region.MinX, err = r.F64(); err != nil {
		return n, err
	}
	if n.Region.MinY, err = r.F64(); err != nil {
		return n, err
	}
	if n.Region.MaxX, err = r.F64(); err != nil {
		return n, err
	}
	if n.Region.MaxY, err = r.F64(); err != nil {
		return n, err
	}
	if n.Prob, err = r.F64(); err != nil {
		return n, err
	}
	band, err := r.Uvarint()
	if err != nil {
		return n, err
	}
	n.Band = fusion.Band(band).String()
	ns, err := r.I64()
	if err != nil {
		return n, err
	}
	n.Time = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	if n.Trace, err = r.String(); err != nil {
		return n, err
	}
	return n, nil
}

// ---------------------------------------------------------------------------
// Probability replies (mw.probInRegion; the region-query request and
// the mw.objectsInRegion reply are fed's, as the federation fan-out
// speaks them too)

func appendProbReply(b []byte, prob float64, band string) []byte {
	b = mwrpc.AppendF64(b, prob)
	return mwrpc.AppendString(b, band)
}

func decodeProbReply(payload []byte) (probReply, error) {
	r := mwrpc.NewBinReader(payload)
	var out probReply
	var err error
	if out.Prob, err = r.F64(); err != nil {
		return out, err
	}
	if out.Band, err = r.String(); err != nil {
		return out, err
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Locate (mw.locate)

// appendLocation encodes a Locate answer straight from the core form,
// in field order: object, rect (4× f64), prob, band (uvarint),
// symbolic and coordinate GLOB text, support and discarded reading IDs
// (counted string lists), and the evaluation time as i64 UnixNano.
func appendLocation(b []byte, l core.Location) []byte {
	b = mwrpc.AppendString(b, l.Object)
	b = mwrpc.AppendF64(b, l.Rect.Min.X)
	b = mwrpc.AppendF64(b, l.Rect.Min.Y)
	b = mwrpc.AppendF64(b, l.Rect.Max.X)
	b = mwrpc.AppendF64(b, l.Rect.Max.Y)
	b = mwrpc.AppendF64(b, l.Prob)
	b = mwrpc.AppendUvarint(b, uint64(l.Band))
	b = mwrpc.AppendString(b, l.Symbolic.String())
	b = mwrpc.AppendString(b, l.Coordinate.String())
	b = appendStrings(b, l.Support)
	b = appendStrings(b, l.Discarded)
	return mwrpc.AppendI64(b, l.At.UnixNano())
}

// decodeLocation decodes a binary Locate answer into the DTO
// toLocationDTO builds, formatting the time as RFC 3339 on this side.
// A band outside §4.4's four (or the unclassified zero) is corrupt.
func decodeLocation(payload []byte) (LocationDTO, error) {
	r := mwrpc.NewBinReader(payload)
	var l LocationDTO
	var err error
	if l.Object, err = r.String(); err != nil {
		return l, err
	}
	for _, f := range []*float64{&l.Rect.MinX, &l.Rect.MinY, &l.Rect.MaxX, &l.Rect.MaxY, &l.Prob} {
		if *f, err = r.F64(); err != nil {
			return l, err
		}
	}
	band, err := r.Uvarint()
	if err != nil {
		return l, err
	}
	if band > uint64(fusion.BandVeryHigh) {
		return l, fmt.Errorf("%w: band %d", mwrpc.ErrCorrupt, band)
	}
	l.Band = fusion.Band(band).String()
	if l.Symbolic, err = r.String(); err != nil {
		return l, err
	}
	if l.Coordinate, err = r.String(); err != nil {
		return l, err
	}
	if l.Support, err = readStrings(r); err != nil {
		return l, err
	}
	if l.Discarded, err = readStrings(r); err != nil {
		return l, err
	}
	ns, err := r.I64()
	if err != nil {
		return l, err
	}
	l.Time = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	return l, nil
}

func appendStrings(b []byte, ss []string) []byte {
	b = mwrpc.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = mwrpc.AppendString(b, s)
	}
	return b
}

// readStrings decodes a counted string list; an empty list is nil, as
// toLocationDTO leaves an empty list.
func readStrings(r *mwrpc.BinReader) ([]string, error) {
	n, err := r.Len(1)
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.String()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Stream acknowledgements

// streamAckDTO is the acknowledgement payload for one stream batch,
// carried in appendStreamAck's binary form. The acked sequence number
// travels in the frame header.
type streamAckDTO struct {
	// Accepted is the CUMULATIVE count of readings stored on this
	// stream; BatchAccepted is this batch's contribution.
	Accepted      uint64
	BatchAccepted int
	// Rejected lists this batch's per-reading rejections (the rest of
	// the batch was stored).
	Rejected []RejectedReadingDTO
	// CreditBatches/CreditBytes replenish the sender's credit window.
	CreditBatches int
	CreditBytes   int
	// Error reports a batch the daemon could not decode at all (the
	// batch was dropped wholesale; it will not be stored on resend).
	Error string
}

func appendStreamAck(b []byte, a streamAckDTO) []byte {
	b = mwrpc.AppendU64(b, a.Accepted)
	b = mwrpc.AppendUvarint(b, uint64(a.BatchAccepted))
	b = appendRejected(b, a.Rejected)
	b = mwrpc.AppendUvarint(b, uint64(a.CreditBatches))
	b = mwrpc.AppendUvarint(b, uint64(a.CreditBytes))
	return mwrpc.AppendString(b, a.Error)
}

func decodeStreamAck(payload []byte) (streamAckDTO, error) {
	r := mwrpc.NewBinReader(payload)
	var a streamAckDTO
	var err error
	if a.Accepted, err = r.U64(); err != nil {
		return a, err
	}
	ba, err := r.Uvarint()
	if err != nil {
		return a, err
	}
	a.BatchAccepted = int(ba)
	if a.Rejected, err = readRejected(r); err != nil {
		return a, err
	}
	cb, err := r.Uvarint()
	if err != nil {
		return a, err
	}
	cy, err := r.Uvarint()
	if err != nil {
		return a, err
	}
	a.CreditBatches, a.CreditBytes = int(cb), int(cy)
	if a.Error, err = r.String(); err != nil {
		return a, err
	}
	return a, nil
}
