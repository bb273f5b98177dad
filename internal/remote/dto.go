// Package remote exposes the Location Service over the mwrpc
// substrate: the server side publishes the §4 API (ingest, queries,
// subscriptions, spatial relations) as RPC methods, and LocationClient
// gives applications and adapters the same interface remotely —
// mirroring how the paper's applications talk to MiddleWhere through
// CORBA. Trigger notifications arrive as server pushes (§4.3's push
// mode).
package remote

import (
	"fmt"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fusion"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
)

// ReadingDTO is the wire form of a sensor reading.
type ReadingDTO struct {
	SensorID        string  `json:"sensorId"`
	SensorType      string  `json:"sensorType,omitempty"`
	MObjectID       string  `json:"mobjectId"`
	Location        string  `json:"location"`
	DetectionRadius float64 `json:"detectionRadius,omitempty"`
	// Time is RFC 3339 with nanoseconds.
	Time string `json:"time"`
}

// toDTO converts a reading for the wire.
func toReadingDTO(r model.Reading) ReadingDTO {
	return ReadingDTO{
		SensorID:        r.SensorID,
		SensorType:      r.SensorType,
		MObjectID:       r.MObjectID,
		Location:        r.Location.String(),
		DetectionRadius: r.DetectionRadius,
		Time:            r.Time.Format(time.RFC3339Nano),
	}
}

// toReading converts a wire reading back to the model form.
func (d ReadingDTO) toReading() (model.Reading, error) {
	loc, err := glob.Parse(d.Location)
	if err != nil {
		return model.Reading{}, fmt.Errorf("remote: reading location: %w", err)
	}
	at, err := time.Parse(time.RFC3339Nano, d.Time)
	if err != nil {
		return model.Reading{}, fmt.Errorf("remote: reading time: %w", err)
	}
	return model.Reading{
		SensorID:        d.SensorID,
		SensorType:      d.SensorType,
		MObjectID:       d.MObjectID,
		Location:        loc,
		DetectionRadius: d.DetectionRadius,
		Time:            at,
	}, nil
}

// IngestBatchArgs is the wire form of a batched ingest: one frame
// carrying a slice of readings that the server stores in a single
// database pass (mw.ingestBatch).
type IngestBatchArgs struct {
	Readings []ReadingDTO `json:"readings"`
}

// ingestArgs is the JSON form of an ingest payload, for both
// mw.ingestBatch requests and stream batches.
func ingestArgs(rs []model.Reading) IngestBatchArgs {
	args := IngestBatchArgs{Readings: make([]ReadingDTO, len(rs))}
	for i, r := range rs {
		args.Readings[i] = toReadingDTO(r)
	}
	return args
}

// IngestBatchReply acknowledges a batched ingest.
type IngestBatchReply struct {
	// Accepted is how many readings of the batch were stored.
	Accepted int `json:"accepted"`
	// Rejected lists the readings that failed decoding or validation,
	// by frame index; they were not stored. The frame itself succeeds
	// so an at-least-once client never re-sends the accepted readings.
	Rejected []RejectedReadingDTO `json:"rejected,omitempty"`
}

// RejectedReadingDTO reports one reading of a batched ingest frame
// that the server rejected.
type RejectedReadingDTO struct {
	// Index is the reading's position in the submitted frame.
	Index int `json:"index"`
	// Error says why it was rejected.
	Error string `json:"error"`
}

// TDFDTO encodes a temporal degradation function.
type TDFDTO struct {
	// Kind is "constant", "linear", "exp", or "step".
	Kind string `json:"kind"`
	// SpanSeconds parameterizes linear (span) and exp (half-life).
	SpanSeconds float64 `json:"spanSeconds,omitempty"`
	// Steps parameterizes step tdfs.
	Steps []StepDTO `json:"steps,omitempty"`
}

// StepDTO is one discrete degradation step.
type StepDTO struct {
	AgeSeconds float64 `json:"ageSeconds"`
	Factor     float64 `json:"factor"`
}

func toTDFDTO(f model.TDF) TDFDTO {
	switch v := f.(type) {
	case model.LinearTDF:
		return TDFDTO{Kind: "linear", SpanSeconds: v.Span.Seconds()}
	case model.ExponentialTDF:
		return TDFDTO{Kind: "exp", SpanSeconds: v.HalfLife.Seconds()}
	case model.StepTDF:
		out := TDFDTO{Kind: "step"}
		for _, s := range v.Steps {
			out.Steps = append(out.Steps, StepDTO{AgeSeconds: s.Age.Seconds(), Factor: s.Factor})
		}
		return out
	default:
		return TDFDTO{Kind: "constant"}
	}
}

func (d TDFDTO) toTDF() model.TDF {
	switch d.Kind {
	case "linear":
		return model.LinearTDF{Span: secs(d.SpanSeconds)}
	case "exp":
		return model.ExponentialTDF{HalfLife: secs(d.SpanSeconds)}
	case "step":
		f := model.StepTDF{}
		for _, s := range d.Steps {
			f.Steps = append(f.Steps, model.Step{Age: secs(s.AgeSeconds), Factor: s.Factor})
		}
		return f
	default:
		return model.ConstantTDF{}
	}
}

func secs(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }

// SensorSpecDTO is the wire form of a sensor calibration.
type SensorSpecDTO struct {
	Type           string  `json:"type"`
	X              float64 `json:"x"`
	Y              float64 `json:"y"`
	Z              float64 `json:"z"`
	ResolutionKind string  `json:"resolutionKind"` // "distance" or "symbolic"
	Radius         float64 `json:"radius,omitempty"`
	Region         string  `json:"region,omitempty"`
	TTLSeconds     float64 `json:"ttlSeconds"`
	TDF            TDFDTO  `json:"tdf"`
}

func toSpecDTO(s model.SensorSpec) SensorSpecDTO {
	out := SensorSpecDTO{
		Type:       s.Type,
		X:          s.Errors.X,
		Y:          s.Errors.Y,
		Z:          s.Errors.Z,
		TTLSeconds: s.TTL.Seconds(),
		TDF:        toTDFDTO(s.TDFOrDefault()),
	}
	switch s.Resolution.Kind {
	case model.ResolutionSymbolic:
		out.ResolutionKind = "symbolic"
		out.Region = s.Resolution.Region.String()
	default:
		out.ResolutionKind = "distance"
		out.Radius = s.Resolution.Radius
	}
	return out
}

func (d SensorSpecDTO) toSpec() (model.SensorSpec, error) {
	spec := model.SensorSpec{
		Type:    d.Type,
		Errors:  model.ErrorModel{X: d.X, Y: d.Y, Z: d.Z},
		TTL:     secs(d.TTLSeconds),
		Degrade: d.TDF.toTDF(),
	}
	switch d.ResolutionKind {
	case "symbolic":
		region, err := glob.Parse(d.Region)
		if err != nil {
			return model.SensorSpec{}, fmt.Errorf("remote: spec region: %w", err)
		}
		spec.Resolution = model.SymbolicResolution(region)
	default:
		spec.Resolution = model.DistanceResolution(d.Radius)
	}
	if err := spec.Validate(); err != nil {
		return model.SensorSpec{}, err
	}
	return spec, nil
}

// RectDTO is an axis-aligned rectangle on the wire.
type RectDTO struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// LocationDTO is the wire form of a Location answer.
type LocationDTO struct {
	Object     string   `json:"object"`
	Rect       RectDTO  `json:"rect"`
	Prob       float64  `json:"prob"`
	Band       string   `json:"band"`
	Symbolic   string   `json:"symbolic"`
	Coordinate string   `json:"coordinate,omitempty"`
	Support    []string `json:"support,omitempty"`
	Discarded  []string `json:"discarded,omitempty"`
	Time       string   `json:"time"`
}

func toLocationDTO(l core.Location) LocationDTO {
	return LocationDTO{
		Object: l.Object,
		Rect: RectDTO{
			MinX: l.Rect.Min.X, MinY: l.Rect.Min.Y,
			MaxX: l.Rect.Max.X, MaxY: l.Rect.Max.Y,
		},
		Prob:       l.Prob,
		Band:       l.Band.String(),
		Symbolic:   l.Symbolic.String(),
		Coordinate: l.Coordinate.String(),
		Support:    l.Support,
		Discarded:  l.Discarded,
		Time:       l.At.Format(time.RFC3339Nano),
	}
}

// NotificationDTO is the wire form of a trigger notification.
type NotificationDTO struct {
	SubscriptionID string  `json:"subscriptionId"`
	Object         string  `json:"object"`
	Region         RectDTO `json:"region"`
	Prob           float64 `json:"prob"`
	Band           string  `json:"band"`
	Time           string  `json:"time"`
	// Trace is the obs trace ID of the reading that provoked the
	// notification (empty when tracing was off at ingest).
	Trace string `json:"trace,omitempty"`
}

func toNotificationDTO(n core.Notification) NotificationDTO {
	return NotificationDTO{
		SubscriptionID: n.SubscriptionID,
		Object:         n.Object,
		Region: RectDTO{
			MinX: n.Region.Min.X, MinY: n.Region.Min.Y,
			MaxX: n.Region.Max.X, MaxY: n.Region.Max.Y,
		},
		Prob:  n.Prob,
		Band:  n.Band.String(),
		Time:  n.At.Format(time.RFC3339Nano),
		Trace: n.Trace,
	}
}

// HealthDTO is the wire form of the service heartbeat.
type HealthDTO struct {
	// Status is "healthy", "degraded", or "down".
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	Ingested      uint64  `json:"ingested"`
	Notifications uint64  `json:"notifications"`
	Subscriptions int     `json:"subscriptions"`
	Sensors       int     `json:"sensors"`
	QueueDepth    int     `json:"queueDepth"`
	QueueCap      int     `json:"queueCap"`
	// Federation is present when the daemon is part of a shard
	// federation: its name, placement-map version, and peer view.
	Federation *FederationDTO `json:"federation,omitempty"`
	// SLOs is present when the daemon tracks latency objectives (-slo):
	// each objective's latest windowed evaluation, sorted by name.
	SLOs []SLODTO `json:"slos,omitempty"`
}

// SLODTO is one latency objective's last evaluation on the wire.
type SLODTO struct {
	Name       string  `json:"name"`
	Metric     string  `json:"metric"`
	Percentile float64 `json:"percentile"`
	TargetUs   float64 `json:"targetUs"`
	WindowSecs float64 `json:"windowSecs"`
	AttainedUs float64 `json:"attainedUs"`
	BurnRate   float64 `json:"burnRate"`
	Samples    uint64  `json:"samples"`
	Breached   bool    `json:"breached"`
}

// StatsArgs configures an mw.stats fetch.
type StatsArgs struct {
	// Traces caps the recent traces returned (0 = none; mwctl trace
	// passes a positive count).
	Traces int `json:"traces,omitempty"`
}

// BucketDTO is one cumulative histogram bucket; Le < 0 encodes the
// +Inf overflow bucket (JSON has no infinity).
type BucketDTO struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// HistogramDTO is the wire form of a histogram snapshot.
type HistogramDTO struct {
	Name    string      `json:"name"`
	Count   uint64      `json:"count"`
	Sum     float64     `json:"sum"`
	P50     float64     `json:"p50"`
	P95     float64     `json:"p95"`
	P99     float64     `json:"p99"`
	Buckets []BucketDTO `json:"buckets,omitempty"`
}

// SpanDTO is one stage of a trace on the wire. Daemon names the
// process that recorded the stage — the per-hop label of a
// cross-daemon trace (empty for single-daemon spans).
type SpanDTO struct {
	Stage    string  `json:"stage"`
	Daemon   string  `json:"daemon,omitempty"`
	OffsetUs float64 `json:"offsetUs"`
	DurUs    float64 `json:"durUs"`
}

// TraceDTO is one recorded pipeline trace on the wire.
type TraceDTO struct {
	ID      string    `json:"id"`
	Begin   string    `json:"begin"`
	TotalUs float64   `json:"totalUs"`
	Spans   []SpanDTO `json:"spans"`
}

// ShardDTO describes one spatial-database shard (a floor's slice of
// the object and reading tables) on the wire.
type ShardDTO struct {
	// Key is the shard's GLOB prefix (top-two path components).
	Key string `json:"key"`
	// Objects counts object-table rows homed on the shard.
	Objects int `json:"objects"`
	// MobileObjects counts objects with stored readings.
	MobileObjects int `json:"mobileObjects"`
	// Readings counts stored reading rows.
	Readings int `json:"readings"`
	// RTreeNodes is the shard R-tree's entry count.
	RTreeNodes int `json:"rtreeNodes"`
	// Epoch is the shard's write epoch (mutation batches applied).
	Epoch uint64 `json:"epoch"`
	// Inserts counts readings stored since the database was created.
	Inserts uint64 `json:"inserts"`
}

// StatsDTO is the wire form of the service's observability snapshot
// (mw.stats).
type StatsDTO struct {
	// Enabled reports whether span tracing is on in the server process.
	Enabled    bool               `json:"enabled"`
	Counters   map[string]uint64  `json:"counters,omitempty"`
	Gauges     map[string]float64 `json:"gauges,omitempty"`
	Histograms []HistogramDTO     `json:"histograms,omitempty"`
	Traces     []TraceDTO         `json:"traces,omitempty"`
	// Shards lists the spatial database's per-floor shards, sorted by
	// key.
	Shards []ShardDTO `json:"shards,omitempty"`
}

// bandFromString parses a band name; unknown strings map to zero.
func bandFromString(s string) fusion.Band {
	switch s {
	case "low":
		return fusion.BandLow
	case "medium":
		return fusion.BandMedium
	case "high":
		return fusion.BandHigh
	case "very-high":
		return fusion.BandVeryHigh
	default:
		return 0
	}
}
