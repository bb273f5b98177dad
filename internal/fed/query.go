package fed

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"middlewhere/internal/glob"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
	"middlewhere/internal/spatialdb"
)

// ObjectsInRegion answers a region scan across the federation: the
// local service evaluates its resident objects, every peer daemon
// with relevant shards evaluates its own, and the results merge into
// index-addressed slots in daemon-name order — so serial and parallel
// fan-out, and any two runs against the same data, produce identical
// results. Objects visible on two daemons mid-migration merge by max
// probability.
//
// When a peer cannot be reached, its relevant shard keys come back in
// the unavailable list (sorted) and the result is explicitly partial;
// with strict set, the call errors instead. A local evaluation error
// is always an error — degradation covers peers, not the caller's own
// daemon.
//
// trace ("" untraced) is the obs trace the scan runs under: the local
// scan, the peer fan-out (trace ID stamped on every peer frame, so each
// peer's region_scan span lands in the same trace), and the merge each
// get a span labeled with this daemon's name.
func (r *Router) ObjectsInRegion(region glob.GLOB, minProb float64, strict bool, trace string) (map[string]float64, []string, error) {
	mFedQueries.Inc()
	regionKey := spatialdb.ShardKeyForGLOB(region)

	// Pick the remote daemons whose placed shards can hold matching
	// objects, in name order for the deterministic merge.
	r.mu.Lock()
	byDaemon := make(map[string][]string) // daemon -> relevant shard keys
	for _, e := range r.placement.Shards {
		if e.Daemon == r.cfg.Daemon || !shardRelevant(regionKey, e.Shard) {
			continue
		}
		byDaemon[e.Daemon] = append(byDaemon[e.Daemon], e.Shard)
	}
	daemons := make([]string, 0, len(byDaemon))
	peers := make([]*peer, 0, len(byDaemon))
	for name := range byDaemon {
		daemons = append(daemons, name)
	}
	sort.Strings(daemons)
	for _, name := range daemons {
		peers = append(peers, r.peers[name])
	}
	r.mu.Unlock()

	// Fan out: slot 0 is the local evaluation, slots 1..n the peers.
	fanStart := time.Now()
	results := make([]map[string]float64, len(daemons)+1)
	errs := make([]error, len(daemons)+1)
	var wg sync.WaitGroup
	wg.Add(len(daemons) + 1)
	go func() {
		defer wg.Done()
		localStart := time.Now()
		results[0], errs[0] = r.svc.ObjectsInRegion(region, minProb)
		obs.SpanSinceD(trace, "fed_local_scan", r.cfg.Daemon, localStart)
	}()
	q := RegionQuery{Region: region.String(), MinProb: minProb}
	for i, p := range peers {
		go func(slot int, p *peer) {
			defer wg.Done()
			if p == nil {
				errs[slot] = fmt.Errorf("%w: no peer", ErrPeerDown)
				return
			}
			errs[slot] = p.call(trace, func(cli *mwrpc.Client) error {
				return cli.Call("mw.objectsInRegion", trace,
					func(b []byte) []byte { return AppendRegionQuery(b, q) },
					func(payload []byte) (err error) {
						results[slot], err = DecodeObjectsReply(payload)
						return err
					})
			})
		}(i+1, p)
	}
	wg.Wait()
	// fed_fanout spans the whole scatter phase: its duration minus the
	// slowest peer's region_scan is the federation overhead.
	obs.SpanSinceD(trace, "fed_fanout", r.cfg.Daemon, fanStart)

	if errs[0] != nil {
		return nil, nil, errs[0]
	}
	mergeStart := time.Now()
	merged := results[0]
	if merged == nil {
		merged = make(map[string]float64)
	}
	var unavailable []string
	seen := make(map[string]bool)
	for i, name := range daemons {
		if errs[i+1] != nil {
			for _, key := range byDaemon[name] {
				if !seen[key] {
					seen[key] = true
					unavailable = append(unavailable, key)
				}
			}
			continue
		}
		for id, prob := range results[i+1] {
			if cur, ok := merged[id]; !ok || prob > cur {
				merged[id] = prob
			}
		}
	}
	sort.Strings(unavailable)
	obs.SpanSinceD(trace, "fed_merge", r.cfg.Daemon, mergeStart)
	if len(unavailable) > 0 {
		mFedPartialResults.Inc()
		if strict {
			return nil, unavailable, fmt.Errorf("%w: %s", ErrUnavailable, strings.Join(unavailable, ", "))
		}
	}
	return merged, unavailable, nil
}

// Query answers the wire form of the federated scan.
func (r *Router) Query(a QueryArgs) (QueryReply, error) {
	region, err := glob.Parse(a.Region)
	if err != nil {
		return QueryReply{}, err
	}
	objs, unavailable, err := r.ObjectsInRegion(region, a.MinProb, a.Strict, a.Trace)
	if err != nil {
		return QueryReply{}, err
	}
	return QueryReply{Objects: objs, Unavailable: unavailable, Partial: len(unavailable) > 0}, nil
}
