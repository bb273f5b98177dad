package remote

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/geom"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwql"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
	"middlewhere/internal/topo"
)

// NotifyStream is the push stream carrying trigger notifications.
const NotifyStream = "mw.notify"

// Server publishes a Location Service over mwrpc.
type Server struct {
	svc *core.Service
	rpc *mwrpc.Server

	mu sync.Mutex
	// subs maps subscription ID -> owning connection, for cleanup when
	// a client drops.
	subs map[string]*mwrpc.ServerConn
	// streams holds per-connection streaming-ingest state; nextStream
	// allocates stream IDs.
	streams    map[*mwrpc.ServerConn]map[uint64]*srvStream
	nextStream uint64
	// fed is the federation router, when this daemon is part of one
	// (SetFederation); nil for a standalone daemon.
	fed *fed.Router
	// slo is the latency-objective tracker, when the daemon runs one
	// (SetSLOTracker); nil otherwise.
	slo *obs.SLOTracker
}

// SetSLOTracker attaches a latency-objective tracker; mw.health replies
// include each objective's latest evaluation from then on.
func (s *Server) SetSLOTracker(t *obs.SLOTracker) {
	s.mu.Lock()
	s.slo = t
	s.mu.Unlock()
}

// sloTracker returns the attached tracker, or nil.
func (s *Server) sloTracker() *obs.SLOTracker {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slo
}

// NewServer wraps a Location Service. Call Listen to serve. The hot
// methods (ingest, Locate, region queries) take hand-rolled binary
// payloads; the control plane takes JSON through mwrpc.JSONHandler.
// The federation fan-out calls the binary mw.objectsInRegion like any
// client.
func NewServer(svc *core.Service) *Server {
	s := &Server{
		svc:     svc,
		rpc:     mwrpc.NewServer(),
		subs:    make(map[string]*mwrpc.ServerConn),
		streams: make(map[*mwrpc.ServerConn]map[uint64]*srvStream),
	}
	s.rpc.Register("mw.ingestBatch", s.handleIngestBatch)
	s.rpc.Register("mw.locate", s.handleLocate)
	s.rpc.Register("mw.probInRegion", s.handleProbInRegion)
	s.rpc.Register("mw.objectsInRegion", s.handleObjectsInRegion)
	s.rpc.Register("mw.streamOpen", mwrpc.JSONHandler(s.handleStreamOpen))
	s.rpc.OnStreamBatch(s.handleStreamBatch)
	s.rpc.Register("mw.registerSensor", mwrpc.JSONHandler(s.handleRegisterSensor))
	s.rpc.Register("mw.subscribe", mwrpc.JSONHandler(s.handleSubscribe))
	s.rpc.Register("mw.unsubscribe", mwrpc.JSONHandler(s.handleUnsubscribe))
	s.rpc.Register("mw.relate", mwrpc.JSONHandler(s.handleRelate))
	s.rpc.Register("mw.route", mwrpc.JSONHandler(s.handleRoute))
	s.rpc.Register("mw.proximity", mwrpc.JSONHandler(s.handleProximity))
	s.rpc.Register("mw.coLocated", mwrpc.JSONHandler(s.handleCoLocated))
	s.rpc.Register("mw.query", mwrpc.JSONHandler(s.handleQuery))
	s.rpc.Register("mw.distribution", mwrpc.JSONHandler(s.handleDistribution))
	s.rpc.Register("mw.history", mwrpc.JSONHandler(s.handleHistory))
	s.rpc.Register("mw.defineRegion", mwrpc.JSONHandler(s.handleDefineRegion))
	s.rpc.Register("mw.health", mwrpc.JSONHandler(s.handleHealth))
	s.rpc.Register("mw.stats", mwrpc.JSONHandler(s.handleStats))
	s.rpc.Register(fed.MethodHello, mwrpc.JSONHandler(s.handleHello))
	s.rpc.Register(fed.MethodShards, mwrpc.JSONHandler(s.handleShards))
	return s
}

// handleStats snapshots the process-global registry and tracer for
// mwctl stats / mwctl trace.
func (s *Server) handleStats(_ *mwrpc.ServerConn, a StatsArgs, _ string) (any, error) {
	out := statsSnapshot(obs.Default(), obs.DefaultTracer(), a.Traces)
	out.Shards = s.svc.DB().ShardStats()
	return out, nil
}

// statsSnapshot renders a registry (and optionally recent traces) into
// the wire form.
func statsSnapshot(reg *obs.Registry, tr *obs.Tracer, traces int) StatsDTO {
	snap := reg.Snapshot()
	out := StatsDTO{Enabled: obs.Enabled()}
	if len(snap.Counters) > 0 {
		out.Counters = make(map[string]uint64, len(snap.Counters))
		for _, c := range snap.Counters {
			out.Counters[c.Name] = c.Value
		}
	}
	if len(snap.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(snap.Gauges))
		for _, g := range snap.Gauges {
			out.Gauges[g.Name] = g.Value
		}
	}
	for _, h := range snap.Histograms {
		hd := HistogramDTO{
			Name: h.Name, Count: h.Count, Sum: h.Sum,
			P50: h.P50, P95: h.P95, P99: h.P99,
		}
		for _, b := range h.Buckets {
			le := b.Le
			if math.IsInf(le, 1) {
				le = -1 // JSON has no +Inf; negative marks the overflow bucket
			}
			hd.Buckets = append(hd.Buckets, BucketDTO{Le: le, Count: b.Count})
		}
		out.Histograms = append(out.Histograms, hd)
	}
	if traces > 0 && tr != nil {
		for _, t := range tr.Recent(traces) {
			td := TraceDTO{
				ID:      t.ID,
				Begin:   t.Begin.Format(time.RFC3339Nano),
				TotalUs: float64(t.Total().Microseconds()),
			}
			for _, sp := range t.Spans {
				td.Spans = append(td.Spans, SpanDTO{
					Stage:    sp.Stage,
					Daemon:   sp.Daemon,
					OffsetUs: float64(sp.Offset.Microseconds()),
					DurUs:    float64(sp.Dur.Microseconds()),
				})
			}
			out.Traces = append(out.Traces, td)
		}
	}
	return out
}

func (s *Server) handleHealth(_ *mwrpc.ServerConn, _ struct{}, _ string) (any, error) {
	h := s.svc.Health()
	out := HealthDTO{
		Status:        h.State.String(),
		UptimeSeconds: h.Uptime.Seconds(),
		Ingested:      h.Ingested,
		Notifications: h.Notifications,
		Subscriptions: h.Subscriptions,
		Sensors:       h.Sensors,
		QueueDepth:    h.QueueDepth,
		QueueCap:      h.QueueCap,
	}
	if r := s.federation(); r != nil {
		out.Federation = &FederationDTO{
			Daemon:           r.Daemon(),
			PlacementVersion: r.Placement().Version,
			Peers:            r.PeerStates(),
		}
	}
	if t := s.sloTracker(); t != nil {
		for _, st := range t.Status() {
			out.SLOs = append(out.SLOs, SLODTO{
				Name:       st.Name,
				Metric:     st.Metric,
				Percentile: st.Percentile,
				TargetUs:   float64(st.Target.Microseconds()),
				WindowSecs: st.Window.Seconds(),
				AttainedUs: float64(st.Attained.Microseconds()),
				BurnRate:   st.BurnRate,
				Samples:    st.Samples,
				Breached:   st.Breached,
			})
		}
	}
	return out, nil
}

// Listen binds to addr and returns the bound address.
func (s *Server) Listen(addr string) (string, error) { return s.rpc.Listen(addr) }

// Close stops serving (the wrapped Location Service is not closed; its
// owner closes it).
func (s *Server) Close() { s.rpc.Close() }

// handleIngestBatch stores an mw.ingestBatch frame. A single reading
// travels as a batch of one, so this is the daemon's only
// request/response ingest method. Readings arrive structurally encoded
// (no RFC 3339 parse, no glob re-parse) and the reply payload is
// hand-rolled too.
func (s *Server) handleIngestBatch(_ *mwrpc.ServerConn, payload []byte, trace string) (mwrpc.Appender, error) {
	rep, err := s.ingestPayload(payload, trace)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte { return AppendIngestReply(b, rep) }, nil
}

// decodeIngest decodes one binary ingest payload — from an
// mw.ingestBatch request or a stream batch — and stamps the frame's
// trace ID on every reading, so each one's pipeline stays
// attributable. A reading that fails to decode becomes a frame-indexed
// rejection; frameIdx maps rs back to frame positions. An error means
// the payload as a whole is unreadable.
func decodeIngest(payload []byte, trace string) (rs []model.Reading, frameIdx []int, rejected []RejectedReadingDTO, err error) {
	rs, frameIdx, rejected, err = DecodeReadings(payload)
	if err != nil {
		return nil, nil, nil, err
	}
	for i := range rs {
		rs[i].Trace = trace
	}
	return rs, frameIdx, rejected, nil
}

// ingestPayload decodes an ingest payload (recording the decode as the
// trace's ingest stage), stores the batch in one database pass, and
// folds the database's per-reading rejections (remapped to frame
// indices) into the reply.
//
// A per-reading failure never fails the frame: the valid readings are
// already stored, so a frame-level error would make an at-least-once
// client re-send (and re-store) them forever. The reply instead
// carries the accepted count plus the rejection list, which the client
// surfaces as a *spatialdb.RejectedError. An unreadable payload or a
// non-positional failure (e.g. a closing service) is a frame-level
// error — nothing was stored, a retry is safe.
func (s *Server) ingestPayload(payload []byte, trace string) (IngestBatchReply, error) {
	start := time.Now()
	rs, frameIdx, rejected, err := decodeIngest(payload, trace)
	if err != nil {
		return IngestBatchReply{}, err
	}
	obs.SpanSince(trace, "ingest", start)
	total := len(rs) + len(rejected)
	if err := s.svc.IngestBatch(rs); err != nil {
		var rej *spatialdb.RejectedError
		if !errors.As(err, &rej) {
			return IngestBatchReply{}, err
		}
		for k, idx := range rej.Indices {
			if idx < 0 || idx >= len(frameIdx) {
				continue
			}
			msg := ""
			if k < len(rej.Errs) {
				msg = rej.Errs[k].Error()
			}
			rejected = append(rejected, RejectedReadingDTO{Index: frameIdx[idx], Error: msg})
		}
	}
	sort.Slice(rejected, func(i, j int) bool { return rejected[i].Index < rejected[j].Index })
	return IngestBatchReply{Accepted: total - len(rejected), Rejected: rejected}, nil
}

type registerSensorArgs struct {
	SensorID string        `json:"sensorId"`
	Spec     SensorSpecDTO `json:"spec"`
}

func (s *Server) handleRegisterSensor(_ *mwrpc.ServerConn, a registerSensorArgs, _ string) (any, error) {
	spec, err := a.Spec.toSpec()
	if err != nil {
		return nil, err
	}
	if err := s.svc.RegisterSensor(a.SensorID, spec); err != nil {
		return nil, err
	}
	return "ok", nil
}

type objectArgs struct {
	Object string `json:"object"`
}

// handleLocate answers a Locate. The request is the object ID; the
// reply is encoded straight from core.Location.
func (s *Server) handleLocate(_ *mwrpc.ServerConn, payload []byte, _ string) (mwrpc.Appender, error) {
	object, err := mwrpc.NewBinReader(payload).String()
	if err != nil {
		return nil, err
	}
	loc, err := s.svc.LocateObject(object)
	if err != nil {
		return nil, err
	}
	return func(b []byte) []byte { return appendLocation(b, loc) }, nil
}

type probReply struct {
	Prob float64 `json:"prob"`
	Band string  `json:"band"`
}

// handleProbInRegion answers a probability query.
func (s *Server) handleProbInRegion(_ *mwrpc.ServerConn, payload []byte, _ string) (mwrpc.Appender, error) {
	a, err := fed.DecodeRegionQuery(payload)
	if err != nil {
		return nil, err
	}
	region, err := glob.Parse(a.Region)
	if err != nil {
		return nil, err
	}
	p, band, err := s.svc.ProbInRegion(a.Object, region)
	if err != nil {
		return nil, err
	}
	bandStr := band.String()
	return func(b []byte) []byte { return appendProbReply(b, p, bandStr) }, nil
}

// handleObjectsInRegion answers the local region scan, for clients and
// for the federation fan-out alike. It is trace-aware for the latter:
// the entry daemon's trace ID rides the frame and the scan lands in
// the same trace as a region_scan span labeled with this daemon's
// name.
func (s *Server) handleObjectsInRegion(_ *mwrpc.ServerConn, payload []byte, trace string) (mwrpc.Appender, error) {
	start := time.Now()
	a, err := fed.DecodeRegionQuery(payload)
	if err != nil {
		return nil, err
	}
	region, err := glob.Parse(a.Region)
	if err != nil {
		return nil, err
	}
	objs, err := s.svc.ObjectsInRegion(region, a.MinProb)
	if err != nil {
		return nil, err
	}
	obs.SpanSinceD(trace, "region_scan", s.fedDaemonName(), start)
	return func(b []byte) []byte { return fed.AppendObjectsReply(b, objs) }, nil
}

// SubscribeArgs configures a remote subscription (§4.3).
type SubscribeArgs struct {
	Object       string  `json:"object,omitempty"`
	Region       string  `json:"region"`
	MinProb      float64 `json:"minProb,omitempty"`
	MinBand      string  `json:"minBand,omitempty"`
	EveryReading bool    `json:"everyReading,omitempty"`
}

type subscribeReply struct {
	SubscriptionID string `json:"subscriptionId"`
}

func (s *Server) handleSubscribe(conn *mwrpc.ServerConn, a SubscribeArgs, _ string) (any, error) {
	region, err := glob.Parse(a.Region)
	if err != nil {
		return nil, err
	}
	id, err := s.svc.Subscribe(core.Subscription{
		Object:       a.Object,
		Region:       region,
		MinProb:      a.MinProb,
		MinBand:      bandFromString(a.MinBand),
		EveryReading: a.EveryReading,
		Handler: func(n core.Notification) {
			// Best effort: a dead connection is cleaned up by OnClose.
			_ = conn.Push(NotifyStream, func(b []byte) []byte {
				return appendNotification(b, n)
			})
		},
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.subs[id] = conn
	s.mu.Unlock()
	conn.OnClose(func() {
		s.mu.Lock()
		_, mine := s.subs[id]
		delete(s.subs, id)
		s.mu.Unlock()
		if mine {
			_ = s.svc.Unsubscribe(id)
		}
	})
	return subscribeReply{SubscriptionID: id}, nil
}

type unsubscribeArgs struct {
	SubscriptionID string `json:"subscriptionId"`
}

func (s *Server) handleUnsubscribe(conn *mwrpc.ServerConn, a unsubscribeArgs, _ string) (any, error) {
	s.mu.Lock()
	owner, ok := s.subs[a.SubscriptionID]
	if ok && owner == conn {
		delete(s.subs, a.SubscriptionID)
	}
	s.mu.Unlock()
	if !ok || owner != conn {
		return nil, fmt.Errorf("remote: subscription %s not owned by caller", a.SubscriptionID)
	}
	if err := s.svc.Unsubscribe(a.SubscriptionID); err != nil {
		return nil, err
	}
	return "ok", nil
}

type queryArgs struct {
	// Query is an mwql statement (§5.1's SQL-style queries).
	Query string `json:"query"`
}

// ObjectDTO is the wire form of a spatial object row.
type ObjectDTO struct {
	GLOB       string            `json:"glob"`
	Type       string            `json:"type"`
	Bounds     RectDTO           `json:"bounds"`
	Properties map[string]string `json:"properties,omitempty"`
}

func (s *Server) handleQuery(_ *mwrpc.ServerConn, a queryArgs, _ string) (any, error) {
	objs, err := mwql.Exec(s.svc.DB(), a.Query)
	if err != nil {
		return nil, err
	}
	out := make([]ObjectDTO, 0, len(objs))
	for _, o := range objs {
		out = append(out, ObjectDTO{
			GLOB: o.ID(),
			Type: o.Type,
			Bounds: RectDTO{
				MinX: o.Bounds.Min.X, MinY: o.Bounds.Min.Y,
				MaxX: o.Bounds.Max.X, MaxY: o.Bounds.Max.Y,
			},
			Properties: o.Properties,
		})
	}
	return out, nil
}

type relateArgs struct {
	A string `json:"a"`
	B string `json:"b"`
}

type relateReply struct {
	Relation string `json:"relation"`
	Passage  string `json:"passage"`
}

func (s *Server) handleRelate(_ *mwrpc.ServerConn, a relateArgs, _ string) (any, error) {
	ga, err := glob.Parse(a.A)
	if err != nil {
		return nil, err
	}
	gb, err := glob.Parse(a.B)
	if err != nil {
		return nil, err
	}
	rel, pass, err := s.svc.RelateRegions(ga, gb)
	if err != nil {
		return nil, err
	}
	return relateReply{Relation: rel.String(), Passage: pass.String()}, nil
}

type routeArgs struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Policy is "free" or "restricted".
	Policy string `json:"policy,omitempty"`
}

// RouteReply is the wire form of a route.
type RouteReply struct {
	Regions []string `json:"regions"`
	Length  float64  `json:"length"`
}

func policyFromString(s string) topo.TraversalPolicy {
	if s == "restricted" {
		return topo.AllowRestricted
	}
	return topo.FreeOnly
}

func (s *Server) handleRoute(_ *mwrpc.ServerConn, a routeArgs, _ string) (any, error) {
	from, err := glob.Parse(a.From)
	if err != nil {
		return nil, err
	}
	to, err := glob.Parse(a.To)
	if err != nil {
		return nil, err
	}
	rt, err := s.svc.RouteBetween(from, to, policyFromString(a.Policy))
	if err != nil {
		return nil, err
	}
	return RouteReply{Regions: rt.Regions, Length: rt.Length}, nil
}

type proximityArgs struct {
	A         string  `json:"a"`
	B         string  `json:"b"`
	Threshold float64 `json:"threshold"`
}

func (s *Server) handleProximity(_ *mwrpc.ServerConn, a proximityArgs, _ string) (any, error) {
	p, err := s.svc.Proximity(a.A, a.B, a.Threshold)
	if err != nil {
		return nil, err
	}
	return probReply{Prob: p}, nil
}

type coLocatedArgs struct {
	A string `json:"a"`
	B string `json:"b"`
	// Granularity is "building", "floor", or "room".
	Granularity string `json:"granularity"`
}

type coLocatedReply struct {
	CoLocated bool    `json:"coLocated"`
	Prob      float64 `json:"prob"`
}

func granFromString(s string) glob.Granularity {
	switch s {
	case "building":
		return glob.GranBuilding
	case "floor":
		return glob.GranFloor
	default:
		return glob.GranRoom
	}
}

func (s *Server) handleCoLocated(_ *mwrpc.ServerConn, a coLocatedArgs, _ string) (any, error) {
	ok, p, err := s.svc.CoLocated(a.A, a.B, granFromString(a.Granularity))
	if err != nil {
		return nil, err
	}
	return coLocatedReply{CoLocated: ok, Prob: p}, nil
}

// distributionArgs asks for an object's spatial posterior.
type distributionArgs struct {
	Object string `json:"object"`
}

// RegionProbDTO is one posterior cell on the wire.
type RegionProbDTO struct {
	Rect     RectDTO `json:"rect"`
	Symbolic string  `json:"symbolic,omitempty"`
	Prob     float64 `json:"prob"`
}

func (s *Server) handleDistribution(_ *mwrpc.ServerConn, a distributionArgs, _ string) (any, error) {
	cells, err := s.svc.Distribution(a.Object)
	if err != nil {
		return nil, err
	}
	out := make([]RegionProbDTO, 0, len(cells))
	for _, c := range cells {
		out = append(out, RegionProbDTO{
			Rect: RectDTO{
				MinX: c.Rect.Min.X, MinY: c.Rect.Min.Y,
				MaxX: c.Rect.Max.X, MaxY: c.Rect.Max.Y,
			},
			Symbolic: c.Symbolic.String(),
			Prob:     c.Prob,
		})
	}
	return out, nil
}

func (s *Server) handleHistory(_ *mwrpc.ServerConn, a objectArgs, _ string) (any, error) {
	trail := s.svc.History(a.Object)
	out := make([]LocationDTO, 0, len(trail))
	for _, loc := range trail {
		out = append(out, toLocationDTO(loc))
	}
	return out, nil
}

// defineRegionArgs creates an application-defined region remotely.
type defineRegionArgs struct {
	GLOB string `json:"glob"`
	// Points are polygon vertices in the GLOB prefix's frame.
	Points     [][2]float64      `json:"points"`
	Properties map[string]string `json:"properties,omitempty"`
}

func (s *Server) handleDefineRegion(_ *mwrpc.ServerConn, a defineRegionArgs, _ string) (any, error) {
	g, err := glob.Parse(a.GLOB)
	if err != nil {
		return nil, err
	}
	poly := make(geom.Polygon, 0, len(a.Points))
	for _, p := range a.Points {
		poly = append(poly, geom.Pt(p[0], p[1]))
	}
	if err := s.svc.DefineRegion(g, poly, a.Properties); err != nil {
		return nil, err
	}
	return "ok", nil
}
