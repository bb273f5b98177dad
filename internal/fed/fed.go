// Package fed federates floor shards across daemons. Each daemon runs
// the full Location Service for the floors it owns; a shard-placement
// map leased through internal/registry says which daemon owns which
// floor key, and the Router fans queries out across the map, forwards
// ingest to owners, and hands objects off between daemons with a
// crash-safe prepare/commit migration that carries the reading epoch.
//
// Failure semantics: every peer call runs under a per-peer timeout,
// capped-backoff retry, and a per-peer circuit breaker. When a peer is
// down, federated queries return partial results tagged with the
// explicit Unavailable shard list (or an error in strict mode), and
// ingest falls back to storing locally so no reading is ever dropped —
// the accumulated rows migrate to the owner when it comes back.
package fed

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/obs"
	"middlewhere/internal/registry"
)

// Router-level metrics (per-peer counters are created with the peer).
var (
	mFedQueries        = obs.Default().Counter("fed_queries_total")
	mFedPartialResults = obs.Default().Counter("fed_partial_results_total")
	mFedMigrations     = obs.Default().Counter("fed_migrations_total")
	mFedMigrateReplays = obs.Default().Counter("fed_migration_replays_total")
	mFedForwarded      = obs.Default().Counter("fed_forwarded_readings_total")
	mFedFallbackLocal  = obs.Default().Counter("fed_ingest_fallback_local_total")
	mFedRefreshes      = obs.Default().Counter("fed_placement_refreshes_total")
	mFedPlaceVersion   = obs.Default().Gauge("fed_placement_version")
)

// ErrUnavailable reports a strict-mode federated query that could not
// reach every shard.
var ErrUnavailable = errors.New("fed: shards unavailable")

// Config parameterizes a Router.
type Config struct {
	// Daemon is this daemon's federation name (must be unique).
	Daemon string
	// Addr is the daemon's advertised mwrpc address.
	Addr string
	// RegistryAddr is the shard-placement registry.
	RegistryAddr string
	// Floors are the shard keys this daemon owns and leases.
	Floors []string
	// LeaseTTL is the placement lease duration (default 15s).
	LeaseTTL time.Duration
	// Heartbeat is the lease renewal period (default LeaseTTL/3).
	Heartbeat time.Duration
	// RefreshEvery is the placement cache poll period (default 2s).
	RefreshEvery time.Duration

	// Per-peer call policy.
	DialTimeout time.Duration // default 2s
	CallTimeout time.Duration // default 5s
	// Attempts is calls per operation including the first (default 3).
	Attempts    int
	BackoffBase time.Duration // default 25ms
	BackoffMax  time.Duration // default 500ms
	// BreakerThreshold is consecutive failures before the breaker
	// opens (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open trial (default 2s).
	BreakerCooldown time.Duration

	// Clock and sleep are injectable for tests; nil uses real time.
	Clock func() time.Time
	Sleep func(time.Duration)
}

func (c *Config) fill() error {
	if c.Daemon == "" || c.Addr == "" || c.RegistryAddr == "" {
		return fmt.Errorf("fed: config needs Daemon, Addr, and RegistryAddr")
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = c.LeaseTTL / 3
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 2 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 5 * time.Second
	}
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 25 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 500 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	return nil
}

// Router is a daemon's view of the federation: the cached placement
// map, one peer per remote daemon, and the query/ingest/migration
// logic on top. It implements core.IngestRouter.
type Router struct {
	cfg Config
	svc *core.Service

	reg *registry.Client

	mu        sync.Mutex
	placement registry.Placement
	peers     map[string]*peer // by daemon name

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// New builds a Router: it dials the registry, leases the configured
// floors, fetches the placement map, installs itself as the service's
// ingest router, and starts the heartbeat/refresh loop. Close releases
// the lease and stops the loop.
func New(svc *core.Service, cfg Config) (*Router, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	reg, err := registry.Dial(cfg.RegistryAddr)
	if err != nil {
		return nil, fmt.Errorf("fed: registry dial: %w", err)
	}
	r := &Router{
		cfg:   cfg,
		svc:   svc,
		reg:   reg,
		peers: make(map[string]*peer),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if len(cfg.Floors) > 0 {
		if _, err := reg.PlaceShards(cfg.Daemon, cfg.Addr, cfg.Floors, cfg.LeaseTTL); err != nil {
			reg.Close()
			return nil, fmt.Errorf("fed: lease floors: %w", err)
		}
	}
	if err := r.RefreshPlacement(); err != nil {
		reg.Close()
		return nil, fmt.Errorf("fed: placement fetch: %w", err)
	}
	svc.SetIngestRouter(r)
	go r.loop()
	return r, nil
}

// Close stops the heartbeat loop, releases the placement lease, and
// drops peer connections — the orderly shutdown.
func (r *Router) Close() { r.shutdown(true) }

// Kill tears the router down without releasing the placement lease —
// the crash path chaos tests inject: the daemon vanishes mid-lease and
// the registry's TTL sweep (or the daemon's own re-lease on restart)
// cleans up. Peers keep routing to the dead address until then, which
// is exactly the degraded window the failure semantics cover.
func (r *Router) Kill() { r.shutdown(false) }

func (r *Router) shutdown(unplace bool) {
	r.closeOnce.Do(func() {
		close(r.stop)
		<-r.done
		r.svc.SetIngestRouter(nil)
		if unplace && len(r.cfg.Floors) > 0 {
			_ = r.reg.UnplaceDaemon(r.cfg.Daemon)
		}
		r.reg.Close()
		r.mu.Lock()
		peers := make([]*peer, 0, len(r.peers))
		for _, p := range r.peers {
			peers = append(peers, p)
		}
		r.mu.Unlock()
		for _, p := range peers {
			p.close()
		}
	})
}

// Daemon returns this daemon's federation name.
func (r *Router) Daemon() string { return r.cfg.Daemon }

// loop heartbeats the lease and refreshes the placement cache.
func (r *Router) loop() {
	defer close(r.done)
	hb := time.NewTicker(r.cfg.Heartbeat)
	defer hb.Stop()
	rf := time.NewTicker(r.cfg.RefreshEvery)
	defer rf.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-hb.C:
			if len(r.cfg.Floors) > 0 {
				_, _ = r.reg.PlaceShards(r.cfg.Daemon, r.cfg.Addr, r.cfg.Floors, r.cfg.LeaseTTL)
			}
		case <-rf.C:
			_ = r.RefreshPlacement()
		}
	}
}

// RefreshPlacement re-fetches the placement map and reconciles the
// peer set: new daemons get peers, restarted daemons (changed addr)
// get reconnected, departed daemons keep their peer (the breaker
// idles) until they return.
func (r *Router) RefreshPlacement() error {
	p, err := r.reg.Placement()
	if err != nil {
		return err
	}
	mFedRefreshes.Inc()
	mFedPlaceVersion.Set(float64(p.Version))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.placement = p
	for _, e := range p.Shards {
		if e.Daemon == r.cfg.Daemon {
			continue
		}
		pe, ok := r.peers[e.Daemon]
		if !ok {
			pe = newPeer(e.Daemon, r.cfg.Daemon, peerConfig{
				dialTimeout: r.cfg.DialTimeout,
				callTimeout: r.cfg.CallTimeout,
				attempts:    r.cfg.Attempts,
				backoffBase: r.cfg.BackoffBase,
				backoffMax:  r.cfg.BackoffMax,
				threshold:   r.cfg.BreakerThreshold,
				cooldown:    r.cfg.BreakerCooldown,
				now:         r.cfg.Clock,
				sleep:       r.cfg.Sleep,
			})
			r.peers[e.Daemon] = pe
		}
		pe.setAddr(e.Addr)
	}
	return nil
}

// Placement returns the cached placement map.
func (r *Router) Placement() registry.Placement {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.placement
}

// ownerOf resolves a shard key to its owning daemon and peer (nil
// peer means this daemon, or nobody holds a lease).
func (r *Router) ownerOf(shardKey string) (daemon string, p *peer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.placement.Shards {
		if e.Shard == shardKey {
			if e.Daemon == r.cfg.Daemon {
				return e.Daemon, nil
			}
			return e.Daemon, r.peers[e.Daemon]
		}
	}
	return "", nil
}

// shardsOwnedBy returns the shard keys the cached placement assigns
// to a daemon, sorted.
func (r *Router) shardsOwnedBy(daemon string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.placement.Shards {
		if e.Daemon == daemon {
			out = append(out, e.Shard)
		}
	}
	sort.Strings(out)
	return out
}

// PeerStates reports every peer's breaker/retry state with its placed
// shards, sorted by name.
func (r *Router) PeerStates() []PeerState {
	r.mu.Lock()
	names := make([]string, 0, len(r.peers))
	for name := range r.peers {
		names = append(names, name)
	}
	peers := make(map[string]*peer, len(r.peers))
	for name, p := range r.peers {
		peers[name] = p
	}
	r.mu.Unlock()
	sort.Strings(names)
	out := make([]PeerState, 0, len(names))
	for _, name := range names {
		st, fails, addr, lastErr := peers[name].state()
		calls, failures, retries, opens := peers[name].counters()
		out = append(out, PeerState{
			Name:         name,
			Addr:         addr,
			Breaker:      st,
			ConsecFails:  fails,
			Calls:        calls,
			Failures:     failures,
			Retries:      retries,
			BreakerOpens: opens,
			Shards:       r.shardsOwnedBy(name),
			LastErr:      lastErr,
		})
	}
	return out
}

// Shards assembles the mw.shards reply: placement, local shard keys,
// and peer state.
func (r *Router) Shards() ShardsReply {
	p := r.Placement()
	rep := ShardsReply{
		Daemon:           r.cfg.Daemon,
		PlacementVersion: p.Version,
		Local:            r.svc.DB().LocalShardKeys(),
		Peers:            r.PeerStates(),
	}
	for _, e := range p.Shards {
		rep.Placement = append(rep.Placement, PlacementWire{
			Shard: e.Shard, Daemon: e.Daemon, Addr: e.Addr, Version: e.Version,
		})
	}
	return rep
}

// shardRelevant reports whether a shard key can hold objects matching
// a region key (either is a path prefix of the other; the root region
// matches everything).
func shardRelevant(regionKey, shardKey string) bool {
	if regionKey == "(root)" {
		// A bare-coordinate region spans the whole universe frame.
		return true
	}
	return shardKey == regionKey ||
		strings.HasPrefix(shardKey, regionKey+"/") ||
		strings.HasPrefix(regionKey, shardKey+"/")
}
