// Package registry is the stand-in for the Gaia Space Repository (§7):
// the service-discovery component applications query to find the
// Location Service. Services register a name and address with a TTL
// and keep the entry alive with heartbeats; clients look names up.
// The registry runs over the mwrpc substrate.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"middlewhere/internal/mwrpc"
)

// Entry is one registered service.
type Entry struct {
	// Name is the service name, e.g. "location-service".
	Name string `json:"name"`
	// Addr is the service's dialable TCP address.
	Addr string `json:"addr"`
	// Expires is when the entry lapses without a heartbeat.
	Expires time.Time `json:"expires"`
	// Version is bumped on every (re-)register of the name. The async
	// sweeper records the version it saw when it collected an expired
	// entry and deletes only if the version is unchanged, so a
	// re-register that lands between collection and deletion survives.
	Version uint64 `json:"version"`
}

// PlacementEntry assigns one floor shard to a daemon. The lease
// expires like a service entry; the owning daemon heartbeats it alive
// with PlaceShards.
type PlacementEntry struct {
	// Shard is the floor shard key, e.g. "CS/Floor3".
	Shard string `json:"shard"`
	// Daemon is the owning daemon's federation name.
	Daemon string `json:"daemon"`
	// Addr is the daemon's dialable mwrpc address.
	Addr string `json:"addr"`
	// Expires is when the lease lapses without a heartbeat.
	Expires time.Time `json:"expires"`
	// Version is the placement-map version at which this assignment
	// last changed owner or address (heartbeats do not bump it).
	Version uint64 `json:"version"`
}

// Placement is the whole shard-placement map at one version. Clients
// cache it and refresh when the version moves.
type Placement struct {
	// Version bumps on any ownership/address change or pruned lease —
	// never on a pure heartbeat renewal.
	Version uint64 `json:"version"`
	// Shards lists the live leases, sorted by shard key.
	Shards []PlacementEntry `json:"shards"`
}

// Owner returns the entry for a shard key, if leased.
func (p Placement) Owner(shard string) (PlacementEntry, bool) {
	for _, e := range p.Shards {
		if e.Shard == shard {
			return e, true
		}
	}
	return PlacementEntry{}, false
}

// Daemons returns the distinct daemon names in the placement, sorted.
func (p Placement) Daemons() []string {
	seen := make(map[string]bool, 4)
	var out []string
	for _, e := range p.Shards {
		if !seen[e.Daemon] {
			seen[e.Daemon] = true
			out = append(out, e.Daemon)
		}
	}
	sort.Strings(out)
	return out
}

// DaemonAddrs returns each distinct daemon's dialable address. When a
// daemon appears with several addresses (a restart mid-refresh), the
// lease with the highest version wins — it reflects the newest
// registration.
func (p Placement) DaemonAddrs() map[string]string {
	out := make(map[string]string, 4)
	ver := make(map[string]uint64, 4)
	for _, e := range p.Shards {
		if v, ok := ver[e.Daemon]; !ok || e.Version > v {
			ver[e.Daemon] = e.Version
			out[e.Daemon] = e.Addr
		}
	}
	return out
}

// Sentinel errors.
var (
	ErrNotFound = errors.New("registry: service not found")
	ErrBadEntry = errors.New("registry: bad entry")
)

// Server is the registry service.
type Server struct {
	mu      sync.Mutex
	entries map[string]Entry
	// placement is the shard-placement map: floor shard key → lease.
	placement map[string]PlacementEntry
	// placeVersion is the placement map's version counter. It bumps on
	// ownership/address changes and pruned leases, never on heartbeats.
	placeVersion uint64
	now          func() time.Time
	rpc          *mwrpc.Server

	sweepStop chan struct{}
	sweepDone chan struct{}
}

// NewServer creates a registry server. The clock is injectable for
// tests; nil uses time.Now.
func NewServer(now func() time.Time) *Server {
	if now == nil {
		now = time.Now
	}
	s := &Server{
		entries:   make(map[string]Entry),
		placement: make(map[string]PlacementEntry),
		now:       now,
		rpc:       mwrpc.NewServer(),
	}
	s.rpc.Register("registry.register", mwrpc.JSONHandler(s.handleRegister))
	s.rpc.Register("registry.lookup", mwrpc.JSONHandler(s.handleLookup))
	s.rpc.Register("registry.list", mwrpc.JSONHandler(s.handleList))
	s.rpc.Register("registry.deregister", mwrpc.JSONHandler(s.handleDeregister))
	s.rpc.Register("registry.placeShards", mwrpc.JSONHandler(s.handlePlaceShards))
	s.rpc.Register("registry.placement", mwrpc.JSONHandler(s.handlePlacement))
	s.rpc.Register("registry.unplaceDaemon", mwrpc.JSONHandler(s.handleUnplaceDaemon))
	return s
}

// Listen binds the registry to addr and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	return s.rpc.Listen(addr)
}

// Close shuts the registry down.
func (s *Server) Close() {
	s.mu.Lock()
	stop, done := s.sweepStop, s.sweepDone
	s.sweepStop, s.sweepDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.rpc.Close()
}

// StartSweeper prunes expired entries in the background every
// interval, so names and leases nobody looks up still lapse. The sweep
// is two-phase (collect under the lock, delete under a later lock
// acquisition) and version-checked, so a re-register that lands
// between the phases is never deleted.
func (s *Server) StartSweeper(interval time.Duration) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	s.mu.Lock()
	if s.sweepStop != nil {
		s.mu.Unlock()
		close(stop)
		return
	}
	s.sweepStop, s.sweepDone = stop, done
	s.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				s.SweepExpired()
			}
		}
	}()
}

// expiredRef names an expired entry together with the version it had
// when collected, so the deletion phase can detect a concurrent
// re-register.
type expiredRef struct {
	name    string
	version uint64
	shard   bool // placement lease rather than service entry
}

// collectExpired snapshots the expired entries and leases with their
// versions. It takes and releases the lock — the returned refs may be
// invalidated by concurrent registers, which dropExpired detects.
func (s *Server) collectExpired() []expiredRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	var refs []expiredRef
	for name, e := range s.entries {
		if now.After(e.Expires) {
			refs = append(refs, expiredRef{name: name, version: e.Version})
		}
	}
	for key, pe := range s.placement {
		if now.After(pe.Expires) {
			refs = append(refs, expiredRef{name: key, version: pe.Version, shard: true})
		}
	}
	return refs
}

// dropExpired deletes the collected entries — unless their version
// moved, which means a re-register (or re-lease) raced the sweep and
// the entry must survive.
func (s *Server) dropExpired(refs []expiredRef) {
	if len(refs) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ref := range refs {
		if ref.shard {
			if pe, ok := s.placement[ref.name]; ok && pe.Version == ref.version {
				delete(s.placement, ref.name)
				s.placeVersion++
			}
			continue
		}
		if e, ok := s.entries[ref.name]; ok && e.Version == ref.version {
			delete(s.entries, ref.name)
		}
	}
}

// SweepExpired runs one collect/delete cycle of the background prune.
func (s *Server) SweepExpired() { s.dropExpired(s.collectExpired()) }

type registerArgs struct {
	Name string `json:"name"`
	Addr string `json:"addr"`
	// TTLSeconds is how long the entry lives without a heartbeat;
	// registering again renews it.
	TTLSeconds float64 `json:"ttlSeconds"`
}

func (s *Server) handleRegister(_ *mwrpc.ServerConn, a registerArgs, _ string) (any, error) {
	if a.Name == "" || a.Addr == "" {
		return nil, fmt.Errorf("%w: need name and addr", ErrBadEntry)
	}
	ttl := time.Duration(a.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Version check: carry the previous entry's version forward +1 even
	// when that entry has already expired. A sweep that collected the
	// expired version sees the bump and leaves this fresh registration
	// alone — without it, re-register after lease expiry races the
	// prune and the new entry could be silently dropped.
	ver := uint64(1)
	if prev, ok := s.entries[a.Name]; ok {
		ver = prev.Version + 1
	}
	s.entries[a.Name] = Entry{Name: a.Name, Addr: a.Addr, Expires: s.now().Add(ttl), Version: ver}
	return "ok", nil
}

type placeShardsArgs struct {
	Daemon string   `json:"daemon"`
	Addr   string   `json:"addr"`
	Shards []string `json:"shards"`
	// TTLSeconds is the lease duration; re-placing the same shards
	// heartbeats the lease.
	TTLSeconds float64 `json:"ttlSeconds"`
}

type placeShardsReply struct {
	Version uint64 `json:"version"`
}

// handlePlaceShards leases the named floor shards to a daemon. A
// renewal by the same daemon at the same address only extends the
// lease; a different owner (or address) takes the shard over and bumps
// the placement version, which is how an operator moves a floor.
func (s *Server) handlePlaceShards(_ *mwrpc.ServerConn, a placeShardsArgs, _ string) (any, error) {
	if a.Daemon == "" || a.Addr == "" || len(a.Shards) == 0 {
		return nil, fmt.Errorf("%w: need daemon, addr, and shards", ErrBadEntry)
	}
	ttl := time.Duration(a.TTLSeconds * float64(time.Second))
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	changed := false
	for _, key := range a.Shards {
		if key == "" {
			continue
		}
		prev, ok := s.placement[key]
		if ok && prev.Daemon == a.Daemon && prev.Addr == a.Addr && !now.After(prev.Expires) {
			prev.Expires = now.Add(ttl)
			s.placement[key] = prev
			continue
		}
		changed = true
		s.placement[key] = PlacementEntry{
			Shard: key, Daemon: a.Daemon, Addr: a.Addr,
			Expires: now.Add(ttl),
			// Version is stamped below once, after the bump, so every
			// entry changed in this call shares the new map version.
		}
	}
	if changed {
		s.placeVersion++
		for _, key := range a.Shards {
			if pe, ok := s.placement[key]; ok && pe.Daemon == a.Daemon && pe.Version == 0 {
				pe.Version = s.placeVersion
				s.placement[key] = pe
			}
		}
	}
	return placeShardsReply{Version: s.placeVersion}, nil
}

// handlePlacement returns the live placement map. Expired leases are
// pruned first (each prune bumps the version: a lapsed floor is an
// ownership change clients must observe).
func (s *Server) handlePlacement(_ *mwrpc.ServerConn, _ struct{}, _ string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for key, pe := range s.placement {
		if now.After(pe.Expires) {
			delete(s.placement, key)
			s.placeVersion++
		}
	}
	out := Placement{Version: s.placeVersion, Shards: make([]PlacementEntry, 0, len(s.placement))}
	for _, pe := range s.placement {
		out.Shards = append(out.Shards, pe)
	}
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	return out, nil
}

type unplaceArgs struct {
	Daemon string `json:"daemon"`
}

// handleUnplaceDaemon releases every lease a daemon holds (clean
// shutdown).
func (s *Server) handleUnplaceDaemon(_ *mwrpc.ServerConn, a unplaceArgs, _ string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	changed := false
	for key, pe := range s.placement {
		if pe.Daemon == a.Daemon {
			delete(s.placement, key)
			changed = true
		}
	}
	if changed {
		s.placeVersion++
	}
	return placeShardsReply{Version: s.placeVersion}, nil
}

type lookupArgs struct {
	Name string `json:"name"`
}

func (s *Server) handleLookup(_ *mwrpc.ServerConn, a lookupArgs, _ string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	e, ok := s.entries[a.Name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, a.Name)
	}
	return e, nil
}

func (s *Server) handleList(_ *mwrpc.ServerConn, _ struct{}, _ string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

func (s *Server) handleDeregister(_ *mwrpc.ServerConn, a lookupArgs, _ string) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.entries, a.Name)
	return "ok", nil
}

// pruneLocked drops expired entries. Caller holds the lock.
func (s *Server) pruneLocked() {
	now := s.now()
	for name, e := range s.entries {
		if now.After(e.Expires) {
			delete(s.entries, name)
		}
	}
}

// ---------------------------------------------------------------------------
// Client

// Client talks to a registry server.
type Client struct {
	rpc *mwrpc.Client
}

// Dial connects to a registry.
func Dial(addr string) (*Client, error) {
	c, err := mwrpc.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &Client{rpc: c}, nil
}

// Close drops the connection.
func (c *Client) Close() { c.rpc.Close() }

// Register advertises a service; call it periodically to heartbeat.
func (c *Client) Register(name, addr string, ttl time.Duration) error {
	return mwrpc.CallJSON(c.rpc, "registry.register", "", registerArgs{
		Name: name, Addr: addr, TTLSeconds: ttl.Seconds(),
	}, nil)
}

// Lookup resolves a service name to its entry.
func (c *Client) Lookup(name string) (Entry, error) {
	var e Entry
	if err := mwrpc.CallJSON(c.rpc, "registry.lookup", "", lookupArgs{Name: name}, &e); err != nil {
		return Entry{}, err
	}
	return e, nil
}

// List returns all live entries.
func (c *Client) List() ([]Entry, error) {
	var out []Entry
	if err := mwrpc.CallJSON(c.rpc, "registry.list", "", struct{}{}, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Deregister removes a service entry.
func (c *Client) Deregister(name string) error {
	return mwrpc.CallJSON(c.rpc, "registry.deregister", "", lookupArgs{Name: name}, nil)
}

// PlaceShards leases the floor shards to a daemon (call periodically
// to heartbeat the lease). It returns the placement-map version.
func (c *Client) PlaceShards(daemon, addr string, shards []string, ttl time.Duration) (uint64, error) {
	var rep placeShardsReply
	err := mwrpc.CallJSON(c.rpc, "registry.placeShards", "", placeShardsArgs{
		Daemon: daemon, Addr: addr, Shards: shards, TTLSeconds: ttl.Seconds(),
	}, &rep)
	return rep.Version, err
}

// Placement fetches the live shard-placement map.
func (c *Client) Placement() (Placement, error) {
	var p Placement
	if err := mwrpc.CallJSON(c.rpc, "registry.placement", "", struct{}{}, &p); err != nil {
		return Placement{}, err
	}
	return p, nil
}

// UnplaceDaemon releases every shard lease the daemon holds.
func (c *Client) UnplaceDaemon(daemon string) error {
	return mwrpc.CallJSON(c.rpc, "registry.unplaceDaemon", "", unplaceArgs{Daemon: daemon}, nil)
}
