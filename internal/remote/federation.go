package remote

import (
	"errors"
	"sort"
	"time"

	"middlewhere/internal/fed"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// Federation wiring: the daemon-to-daemon RPCs a federated deployment
// speaks. mw.hello and mw.shards are always registered — a standalone
// daemon answers them with a liveness ack and its local shard keys —
// while the migration/forwarded-ingest/fan-out handlers only exist
// once SetFederation attaches a router. These frames carry JSON
// through mwrpc.JSONHandler; the peers' region scan is the binary
// mw.objectsInRegion every client calls (fed/wire.go). mwrpc carries
// method names missing from its code table via its named-method
// escape, so no table changes are needed.

// SetFederation attaches a federation router to the server and
// registers the daemon-to-daemon methods (mw.migrate, mw.fedIngest,
// mw.fedObjectsInRegion). Call it once, before Listen.
func (s *Server) SetFederation(r *fed.Router) {
	s.mu.Lock()
	s.fed = r
	s.mu.Unlock()
	s.rpc.Register(fed.MethodMigrate, mwrpc.JSONHandler(s.handleMigrate))
	s.rpc.Register(fed.MethodIngest, mwrpc.JSONHandler(s.handleFedIngest))
	s.rpc.Register(fed.MethodObjectsInRegion, mwrpc.JSONHandler(s.handleFedObjectsInRegion))
}

// fedDaemonName is the span label for owner-side federation spans: the
// router's federation name when attached, else the process-wide label.
// Explicit labeling matters because in-process multi-daemon tests share
// one global tracer — the label is what tells the hops apart.
func (s *Server) fedDaemonName() string {
	if r := s.federation(); r != nil {
		return r.Daemon()
	}
	return ""
}

// federation returns the attached router, or nil for a standalone
// daemon.
func (s *Server) federation() *fed.Router {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fed
}

// handleHello is the no-op liveness probe: it proves the daemon
// accepts and answers frames without touching the service. The
// resilient sink's breaker uses it as the half-open trial so a probe
// failure costs nothing.
func (s *Server) handleHello(_ *mwrpc.ServerConn, _ struct{}, _ string) (any, error) {
	return "ok", nil
}

// handleShards reports where floors live: the router's placement map
// and peer view when federated, just the local shard keys otherwise.
func (s *Server) handleShards(_ *mwrpc.ServerConn, _ struct{}, _ string) (any, error) {
	if r := s.federation(); r != nil {
		return r.Shards(), nil
	}
	return fed.ShardsReply{Local: s.svc.DB().LocalShardKeys()}, nil
}

// handleMigrate is the prepare half of the object handoff: merge the
// carried rows idempotently under the epoch guard and ack. Any
// successful reply — applied or recognized replay — tells the source
// it may commit.
func (s *Server) handleMigrate(_ *mwrpc.ServerConn, a fed.MigrateArgs, trace string) (any, error) {
	start := time.Now()
	if trace == "" {
		trace = a.Trace // body copy, for frames relayed without the header
	}
	if a.Object == "" {
		return nil, errors.New("migrate: missing object id")
	}
	rows, err := fed.FromWireBatch(a.Readings)
	if err != nil {
		return nil, err
	}
	db := s.svc.DB()
	applied := db.ImportObject(a.Object, rows, a.Epoch)
	obs.SpanSinceD(trace, "fed_migrate_apply", s.fedDaemonName(), start)
	return fed.MigrateReply{Applied: applied, Epoch: db.ReadingEpoch(a.Object)}, nil
}

// handleFedIngest stores a forwarded batch strictly locally — never
// through the ingest router — so two daemons with disagreeing
// placement maps cannot bounce a reading between each other. Rows the
// service rejects come back as frame indices; the sender stores those
// locally rather than dropping them.
func (s *Server) handleFedIngest(_ *mwrpc.ServerConn, a fed.IngestArgs, trace string) (any, error) {
	start := time.Now()
	if trace == "" {
		trace = a.Trace
	}
	rs := make([]model.Reading, 0, len(a.Readings))
	frameIdx := make([]int, 0, len(a.Readings))
	var rejected []int
	for i, w := range a.Readings {
		r, derr := w.ToReading()
		if derr != nil {
			rejected = append(rejected, i)
			continue
		}
		if s.svc.DB().HasReading(r) {
			// A replayed forward (the sender retried after a lost reply):
			// the row is already durably stored, so it counts as accepted
			// without storing twice.
			continue
		}
		rs = append(rs, r)
		frameIdx = append(frameIdx, i)
	}
	if err := s.svc.IngestBatchLocal(rs); err != nil {
		var rej *spatialdb.RejectedError
		if !errors.As(err, &rej) {
			return nil, err
		}
		for _, idx := range rej.Indices {
			if idx >= 0 && idx < len(frameIdx) {
				rejected = append(rejected, frameIdx[idx])
			}
		}
	}
	sort.Ints(rejected)
	// fed_ingest is the owner-side span of a forwarded batch: decode,
	// replay dedup, and the local store, labeled with this daemon.
	obs.SpanSinceD(trace, "fed_ingest", s.fedDaemonName(), start)
	return fed.IngestReply{Accepted: len(a.Readings) - len(rejected), Rejected: rejected}, nil
}

// handleFedObjectsInRegion answers a client-initiated federated scan:
// the attached router fans out across the placement map and merges
// deterministically. Without a router the local scan handler
// (mw.objectsInRegion) is the right call — this one errors so clients
// learn the daemon is standalone.
func (s *Server) handleFedObjectsInRegion(_ *mwrpc.ServerConn, a fed.QueryArgs, trace string) (any, error) {
	r := s.federation()
	if r == nil {
		return nil, errors.New("federation not enabled on this daemon")
	}
	if trace != "" {
		a.Trace = trace
	} else if a.Trace == "" {
		// Entry daemon of an untraced client query: begin the trace here
		// (a no-op ID when tracing is disabled), so the whole fan-out —
		// local scan, peer hops, merge — lands in one span tree.
		a.Trace = obs.BeginTrace()
	}
	return r.Query(a)
}

// FederationDTO is the optional federation block of the health reply.
type FederationDTO struct {
	Daemon           string          `json:"daemon"`
	PlacementVersion uint64          `json:"placementVersion"`
	Peers            []fed.PeerState `json:"peers,omitempty"`
}

// Probe sends the no-op mw.hello liveness frame. It succeeds exactly
// when the daemon accepts connections and answers requests; nothing is
// read or written.
func (c *LocationClient) Probe() error {
	var out string
	return c.call(fed.MethodHello, struct{}{}, &out)
}

// FedObjectsInRegion runs a federated region scan: the daemon fans
// out across every shard in the placement map and merges. The reply is
// either complete or explicitly partial with the unreachable shard
// keys listed; strict turns a partial result into an error instead.
func (c *LocationClient) FedObjectsInRegion(region string, minProb float64, strict bool) (fed.QueryReply, error) {
	var out fed.QueryReply
	err := c.call(fed.MethodObjectsInRegion, fed.QueryArgs{Region: region, MinProb: minProb, Strict: strict}, &out)
	return out, err
}

// Shards fetches the daemon's shard map: the federation placement and
// peer state when federated, the local shard keys otherwise.
func (c *LocationClient) Shards() (fed.ShardsReply, error) {
	var out fed.ShardsReply
	err := c.call(fed.MethodShards, struct{}{}, &out)
	return out, err
}
