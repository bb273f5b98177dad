package fed

import (
	"fmt"
	"time"

	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

// Wire types for the federation RPCs. The fed package owns both ends
// of every frame it speaks — the router sends these and the remote
// server's handlers decode them — so the two sides can never drift.
// The peer region scan rides the binary mw.objectsInRegion, the same
// frame remote clients send (RegionQuery, AppendObjectsReply); the
// handoff, forwarded ingest and control methods carry JSON. mwrpc
// carries method names missing from its code table via its
// named-method escape, so no table changes are needed.
const (
	// MethodMigrate is the prepare half of the object handoff: the
	// destination merges the carried rows idempotently and replies; the
	// source commits (drops its copy) only after the ack.
	MethodMigrate = "mw.migrate"
	// MethodIngest is federated ingest: a batch forwarded to the
	// daemon owning its floor. The receiver stores it strictly locally
	// (never re-forwards), so disagreeing placement maps cannot bounce
	// a reading between daemons.
	MethodIngest = "mw.fedIngest"
	// MethodObjectsInRegion is the federated region scan: fan-out
	// across the placement map with an explicit Unavailable list.
	MethodObjectsInRegion = "mw.fedObjectsInRegion"
	// MethodShards reports placement, local shards, and peer state.
	MethodShards = "mw.shards"
	// MethodHello is the no-op liveness probe (also used by the
	// resilient sink's breaker half-open check).
	MethodHello = "mw.hello"
)

// ReadingWire is the federation wire form of a stored reading. Unlike
// the ingest DTO it carries the resolved universe-frame region and the
// movement flag: migrated rows bypass re-resolution on import.
type ReadingWire struct {
	SensorID        string  `json:"sensorId"`
	SensorType      string  `json:"sensorType,omitempty"`
	MObjectID       string  `json:"mobjectId"`
	Location        string  `json:"location"`
	DetectionRadius float64 `json:"detectionRadius,omitempty"`
	// Region is the resolved MBR: [minX, minY, maxX, maxY].
	Region [4]float64 `json:"region"`
	// Time is RFC 3339 with nanoseconds.
	Time   string `json:"time"`
	Moving bool   `json:"moving,omitempty"`
	// Trace is the obs trace ID stamped at the entry daemon's ingest
	// (empty when tracing was off). Carrying it per reading keeps every
	// reading's pipeline attributable across the daemon hop — a batch
	// can mix readings from different traces.
	Trace string `json:"trace,omitempty"`
}

// ToWire converts a stored reading for a migration frame.
func ToWire(r model.Reading) ReadingWire {
	return ReadingWire{
		SensorID:        r.SensorID,
		SensorType:      r.SensorType,
		MObjectID:       r.MObjectID,
		Location:        r.Location.String(),
		DetectionRadius: r.DetectionRadius,
		Region:          [4]float64{r.Region.Min.X, r.Region.Min.Y, r.Region.Max.X, r.Region.Max.Y},
		Time:            r.Time.Format(time.RFC3339Nano),
		Moving:          r.Moving,
		Trace:           r.Trace,
	}
}

// ToReading converts a wire reading back to the model form.
func (w ReadingWire) ToReading() (model.Reading, error) {
	loc, err := glob.Parse(w.Location)
	if err != nil {
		return model.Reading{}, fmt.Errorf("fed: reading location: %w", err)
	}
	at, err := time.Parse(time.RFC3339Nano, w.Time)
	if err != nil {
		return model.Reading{}, fmt.Errorf("fed: reading time: %w", err)
	}
	return model.Reading{
		SensorID:        w.SensorID,
		SensorType:      w.SensorType,
		MObjectID:       w.MObjectID,
		Location:        loc,
		DetectionRadius: w.DetectionRadius,
		Region:          geom.Rect{Min: geom.Point{X: w.Region[0], Y: w.Region[1]}, Max: geom.Point{X: w.Region[2], Y: w.Region[3]}},
		Time:            at,
		Moving:          w.Moving,
		Trace:           w.Trace,
	}, nil
}

// ToWireBatch converts a row set for the wire.
func ToWireBatch(rs []model.Reading) []ReadingWire {
	out := make([]ReadingWire, 0, len(rs))
	for _, r := range rs {
		out = append(out, ToWire(r))
	}
	return out
}

// FromWireBatch converts a wire row set back, dropping rows that fail
// to decode (reported in the returned error count).
func FromWireBatch(ws []ReadingWire) ([]model.Reading, error) {
	out := make([]model.Reading, 0, len(ws))
	for i, w := range ws {
		r, err := w.ToReading()
		if err != nil {
			return out, fmt.Errorf("fed: reading %d: %w", i, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// MigrateArgs is the prepare frame of the object handoff.
type MigrateArgs struct {
	// Object is the mobile object being handed off.
	Object string `json:"object"`
	// Epoch is the source's reading epoch for the object; the
	// destination's epoch ends up strictly greater.
	Epoch uint64 `json:"epoch"`
	// Readings is the object's full stored row set at the source.
	Readings []ReadingWire `json:"readings"`
	// From names the source daemon (metrics and logs).
	From string `json:"from,omitempty"`
	// Trace is the obs trace ID of the operation that provoked the
	// handoff, so the migration hop shows up in that trace's span tree.
	// It also rides the mwrpc frame header; the body copy keeps the
	// JSON payload self-describing.
	Trace string `json:"trace,omitempty"`
}

// MigrateReply acks the prepare. Any successful reply — applied or
// recognized replay — means the destination durably covers the
// payload, so the source may commit (drop its copy).
type MigrateReply struct {
	// Applied reports whether the payload changed the destination
	// (false for a recognized replay).
	Applied bool `json:"applied"`
	// Epoch is the destination's epoch for the object after the call.
	Epoch uint64 `json:"epoch"`
}

// IngestArgs is a forwarded ingest batch.
type IngestArgs struct {
	Readings []ReadingWire `json:"readings"`
	From     string        `json:"from,omitempty"`
	// Trace is the frame-level obs trace ID (the first traced reading
	// of the batch); per-reading IDs travel on the readings themselves.
	Trace string `json:"trace,omitempty"`
}

// IngestReply acks a forwarded batch.
type IngestReply struct {
	// Accepted is how many readings were stored.
	Accepted int `json:"accepted"`
	// Rejected lists frame indices that failed validation; they were
	// not stored and retrying them would be pointless.
	Rejected []int `json:"rejected,omitempty"`
}

// RegionQuery is the binary request of mw.probInRegion and
// mw.objectsInRegion: a peer's local region scan is the same frame a
// remote client sends, so a federated daemon queries its peers exactly
// like any client would.
type RegionQuery struct {
	// Object is the object a probInRegion asks about; empty for a scan.
	Object string
	Region string
	// MinProb filters objectsInRegion results.
	MinProb float64
}

// AppendRegionQuery appends q's binary form to b.
func AppendRegionQuery(b []byte, q RegionQuery) []byte {
	b = mwrpc.AppendString(b, q.Object)
	b = mwrpc.AppendString(b, q.Region)
	return mwrpc.AppendF64(b, q.MinProb)
}

// DecodeRegionQuery parses AppendRegionQuery's form.
func DecodeRegionQuery(payload []byte) (RegionQuery, error) {
	r := mwrpc.NewBinReader(payload)
	var q RegionQuery
	var err error
	if q.Object, err = r.String(); err != nil {
		return q, err
	}
	if q.Region, err = r.String(); err != nil {
		return q, err
	}
	if q.MinProb, err = r.F64(); err != nil {
		return q, err
	}
	return q, nil
}

// AppendObjectsReply appends the binary reply of mw.objectsInRegion:
// a count, then each object ID and its probability.
func AppendObjectsReply(b []byte, objs map[string]float64) []byte {
	b = mwrpc.AppendUvarint(b, uint64(len(objs)))
	for obj, p := range objs {
		b = mwrpc.AppendString(b, obj)
		b = mwrpc.AppendF64(b, p)
	}
	return b
}

// DecodeObjectsReply parses AppendObjectsReply's form.
func DecodeObjectsReply(payload []byte) (map[string]float64, error) {
	r := mwrpc.NewBinReader(payload)
	n, err := r.Len(9)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		obj, err := r.String()
		if err != nil {
			return nil, err
		}
		p, err := r.F64()
		if err != nil {
			return nil, err
		}
		out[obj] = p
	}
	return out, nil
}

// QueryArgs asks for a federated region scan.
type QueryArgs struct {
	Region  string  `json:"region"`
	MinProb float64 `json:"minProb,omitempty"`
	// Strict makes a down shard an error instead of a partial result.
	Strict bool `json:"strict,omitempty"`
	// Trace is the obs trace ID the scan runs under (empty untraced).
	Trace string `json:"trace,omitempty"`
}

// QueryReply is a federated region scan's result: either complete, or
// explicitly partial with the unavailable shards named.
type QueryReply struct {
	Objects map[string]float64 `json:"objects"`
	// Unavailable lists the shard keys whose owning daemon could not
	// be reached, sorted. Empty means the result is complete.
	Unavailable []string `json:"unavailable,omitempty"`
	// Partial mirrors len(Unavailable) > 0 for cheap checks.
	Partial bool `json:"partial,omitempty"`
}

// PeerState describes one peer as seen from a daemon's router.
type PeerState struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// Breaker is "closed", "open", or "half-open".
	Breaker string `json:"breaker"`
	// ConsecFails counts consecutive call failures.
	ConsecFails int `json:"consecFails,omitempty"`
	// Calls, Failures, and Retries are the peer's lifetime call
	// counters (the fed_peer_* metrics), and BreakerOpens how many
	// times its breaker opened — surfaced here so mwctl health -v can
	// show them without scraping /metrics.
	Calls        uint64 `json:"calls,omitempty"`
	Failures     uint64 `json:"failures,omitempty"`
	Retries      uint64 `json:"retries,omitempty"`
	BreakerOpens uint64 `json:"breakerOpens,omitempty"`
	// Shards lists the shard keys the placement map assigns to the
	// peer, sorted.
	Shards []string `json:"shards,omitempty"`
	// LastErr is the most recent failure, if any.
	LastErr string `json:"lastErr,omitempty"`
}

// PlacementWire is one placement lease on the wire (mirrors the
// registry entry without the time type).
type PlacementWire struct {
	Shard   string `json:"shard"`
	Daemon  string `json:"daemon"`
	Addr    string `json:"addr"`
	Version uint64 `json:"version"`
}

// ShardsReply answers mw.shards: where every floor lives and how this
// daemon sees its peers.
type ShardsReply struct {
	// Daemon is the answering daemon's federation name (empty for a
	// non-federated server).
	Daemon string `json:"daemon,omitempty"`
	// PlacementVersion is the cached placement-map version.
	PlacementVersion uint64 `json:"placementVersion,omitempty"`
	// Placement is the cached placement map, sorted by shard.
	Placement []PlacementWire `json:"placement,omitempty"`
	// Local lists the floors the local database holds readings on,
	// sorted: the floor key (top-two GLOB path components) of each
	// stored object's newest reading. Building geometry adds none.
	Local []string `json:"local,omitempty"`
	// Peers is the per-peer breaker/retry state, sorted by name.
	Peers []PeerState `json:"peers,omitempty"`
}
