package fed

import (
	"fmt"
	"sort"
	"time"

	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// traceOf picks the frame-level trace ID for a forwarded batch: the
// first traced reading among the indexed rows. With tracing off every
// reading carries an empty ID and this returns "" without allocating —
// the fed hot path stays zero-alloc (pinned by the alloc guard test).
func traceOf(rs []model.Reading, idxs []int) string {
	for _, i := range idxs {
		if rs[i].Trace != "" {
			return rs[i].Trace
		}
	}
	return ""
}

// RouteReadings implements core.IngestRouter: readings whose floor
// shard is leased to a peer daemon are forwarded to it (after handing
// over any rows this daemon still holds for their objects), and the
// rest — locally owned floors, unleased floors, and anything a down
// peer could not take — stay local. Nothing is ever dropped: the
// degraded fallback stores remotely-owned readings locally, and the
// accumulated rows migrate to the owner on a later batch once it is
// reachable again.
func (r *Router) RouteReadings(rs []model.Reading) ([]int, error) {
	// Group indices by owning peer; everything else is local.
	localIdx := make([]int, 0, len(rs))
	type fwd struct {
		peer *peer
		idxs []int
	}
	byPeer := make(map[string]*fwd)
	for i := range rs {
		key := spatialdb.ShardKeyForGLOB(rs[i].Location)
		daemon, p := r.ownerOf(key)
		if p == nil || daemon == r.cfg.Daemon {
			localIdx = append(localIdx, i)
			continue
		}
		f, ok := byPeer[daemon]
		if !ok {
			f = &fwd{peer: p}
			byPeer[daemon] = f
		}
		f.idxs = append(f.idxs, i)
	}
	if len(byPeer) == 0 {
		return localIdx, nil
	}

	daemons := make([]string, 0, len(byPeer))
	for name := range byPeer {
		daemons = append(daemons, name)
	}
	sort.Strings(daemons)
	for _, name := range daemons {
		f := byPeer[name]
		fellBack := r.forwardBatch(name, f.peer, rs, f.idxs, &localIdx)
		if fellBack {
			mFedFallbackLocal.Inc()
		}
	}
	sort.Ints(localIdx)
	return localIdx, nil
}

// forwardBatch hands the indexed readings to their owner: first the
// prepare/commit migration of any objects still resident here, then
// the forwarded ingest. On any transport failure the indices are
// appended to localIdx (degraded fallback) and fellBack reports it.
func (r *Router) forwardBatch(daemon string, p *peer, rs []model.Reading, idxs []int, localIdx *[]int) (fellBack bool) {
	trace := traceOf(rs, idxs)
	// Hand over objects this daemon still holds rows for, before their
	// new readings land at the owner — the epoch must travel first or
	// the owner's fused-location cache could serve stale state.
	seen := make(map[string]bool, 4)
	for _, i := range idxs {
		id := rs[i].MObjectID
		if id == "" || seen[id] {
			continue
		}
		seen[id] = true
		if _, resident := r.svc.DB().ObjectShardKey(id); !resident {
			continue
		}
		if err := r.migrateObject(id, p, trace); err != nil {
			// Owner unreachable: keep everything local this round.
			*localIdx = append(*localIdx, idxs...)
			return true
		}
	}
	args := IngestArgs{Readings: make([]ReadingWire, 0, len(idxs)), From: r.cfg.Daemon, Trace: trace}
	for _, i := range idxs {
		args.Readings = append(args.Readings, ToWire(rs[i]))
	}
	fwdStart := time.Now()
	var rep IngestReply
	if err := p.call(trace, func(cli *mwrpc.Client) error {
		return mwrpc.CallJSON(cli, MethodIngest, trace, args, &rep)
	}); err != nil {
		obs.SpanSinceD(trace, "fed_forward", r.cfg.Daemon, fwdStart)
		*localIdx = append(*localIdx, idxs...)
		return true
	}
	// fed_forward covers the entry daemon's whole peer call — dial,
	// retries, and the owner's handling — so the gap between it and the
	// owner-side fed_ingest span is pure network + retry wait.
	obs.SpanSinceD(trace, "fed_forward", r.cfg.Daemon, fwdStart)
	mFedForwarded.Add(uint64(rep.Accepted))
	// Readings the owner rejected (e.g. a sensor registered only here)
	// fall back to local storage rather than vanishing.
	for _, ri := range rep.Rejected {
		if ri >= 0 && ri < len(idxs) {
			*localIdx = append(*localIdx, idxs[ri])
			fellBack = true
		}
	}
	return fellBack
}

// migrateObject runs the prepare/commit handoff for one object: export
// rows+epoch, send mw.migrate, and drop the local copy only when the
// destination acked exactly what was exported. Readings that land
// between export and ack keep the local copy alive (the epoch check in
// DropObject refuses) and the loop hands off again. The source keeps
// serving queries from its copy the whole time.
func (r *Router) migrateObject(id string, p *peer, trace string) error {
	const maxHandoffs = 4
	migStart := time.Now()
	for attempt := 0; attempt < maxHandoffs; attempt++ {
		rows, epoch, ok := r.svc.DB().ExportObject(id)
		if !ok {
			return nil // someone else completed the handoff
		}
		args := MigrateArgs{Object: id, Epoch: epoch, Readings: ToWireBatch(rows), From: r.cfg.Daemon, Trace: trace}
		var rep MigrateReply
		if err := p.call(trace, func(cli *mwrpc.Client) error {
			return mwrpc.CallJSON(cli, MethodMigrate, trace, args, &rep)
		}); err != nil {
			obs.SpanSinceD(trace, "fed_migrate", r.cfg.Daemon, migStart)
			return err
		}
		if !rep.Applied {
			mFedMigrateReplays.Inc()
		}
		// Commit: the destination durably covers the exported epoch
		// (applied or recognized replay). Drop only if nothing new
		// landed locally since the export.
		if r.svc.DB().DropObject(id, epoch) {
			mFedMigrations.Inc()
			obs.SpanSinceD(trace, "fed_migrate", r.cfg.Daemon, migStart)
			return nil
		}
		if _, resident := r.svc.DB().ObjectShardKey(id); !resident {
			obs.SpanSinceD(trace, "fed_migrate", r.cfg.Daemon, migStart)
			return nil // dropped concurrently
		}
		// New rows arrived mid-handoff; export and send again.
	}
	return fmt.Errorf("fed: object %s kept receiving writes during handoff", id)
}
