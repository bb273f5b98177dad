package main

import (
	"fmt"
	"time"

	"middlewhere/internal/core"
	"middlewhere/internal/fed"
	"middlewhere/internal/mwrpc"
	"middlewhere/internal/registry"
	"middlewhere/internal/remote"
)

// stack is the program under test as a deployment would run it — one
// daemon, or a registry and two federated daemons — listening on
// loopback TCP in this process, plus the generator's two connections
// to the entry daemon.
type stack struct {
	svcs    []*core.Service // entry daemon first
	closers []func()        // run in reverse order

	gen    *remote.LocationClient // conn 1: the reading stream
	sub    *remote.LocationClient // conn 2: subscriptions, queries, RPC probes
	stream *remote.IngestStream   // on gen
}

func (s *stack) onClose(fn func()) { s.closers = append(s.closers, fn) }

func (s *stack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
	s.closers = nil
}

// startDaemon brings up one Location Service behind an mwrpc listener
// and returns its address.
func (s *stack) startDaemon(c *city) (*core.Service, *remote.Server, string, error) {
	svc, err := core.New(c.bld)
	if err != nil {
		return nil, nil, "", err
	}
	s.onClose(svc.Close)
	s.svcs = append(s.svcs, svc)
	srv := remote.NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	s.onClose(srv.Close)
	return svc, srv, addr, nil
}

// dial opens one client connection and insists on the binary codec:
// a run that silently fell back to JSON would measure another system.
func (s *stack) dial(addr string) (*remote.LocationClient, error) {
	cl, err := remote.DialLocationOptions(addr, remote.DialOptions{Wire: mwrpc.WireBinary})
	if err != nil {
		return nil, err
	}
	s.onClose(cl.Close)
	if cl.WireCodec() != mwrpc.CodecBinary {
		return nil, fmt.Errorf("connection to %s negotiated %v, want binary", addr, cl.WireCodec())
	}
	return cl, nil
}

// registerSensors registers the city's sensors through cl.
func registerSensors(c *city, cl *remote.LocationClient) error {
	ids, specs := c.sensorSpecs()
	for i, id := range ids {
		if err := cl.RegisterSensor(id, specs[i]); err != nil {
			return fmt.Errorf("register %s: %w", id, err)
		}
	}
	return nil
}

// newStack starts the daemon side (federated: a registry, daemon A
// owning the lower half of the floors and daemon B the upper half),
// registers the sensors on every daemon over the wire, and opens the
// two generator connections and the ingest stream to the entry daemon.
func newStack(c *city, federated bool) (st *stack, err error) {
	st = &stack{}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var entry string
	if !federated {
		if _, _, entry, err = st.startDaemon(c); err != nil {
			return nil, err
		}
	} else {
		reg := registry.NewServer(time.Now)
		regAddr, lerr := reg.Listen("127.0.0.1:0")
		if lerr != nil {
			return nil, lerr
		}
		st.onClose(reg.Close)
		half := len(c.floors) / 2
		var routers []*fed.Router
		for i, floors := range [][]string{c.floors[:half], c.floors[half:]} {
			svc, srv, addr, derr := st.startDaemon(c)
			if derr != nil {
				return nil, derr
			}
			router, rerr := fed.New(svc, fed.Config{
				Daemon:       string(rune('A' + i)),
				Addr:         addr,
				RegistryAddr: regAddr,
				Floors:       floors,
			})
			if rerr != nil {
				return nil, rerr
			}
			st.onClose(router.Close)
			srv.SetFederation(router)
			routers = append(routers, router)
			if i == 0 {
				entry = addr
			} else {
				// B's sensors: forwarded readings are validated where
				// they are stored.
				cl, cerr := st.dial(addr)
				if cerr != nil {
					return nil, cerr
				}
				if err = registerSensors(c, cl); err != nil {
					return nil, err
				}
			}
		}
		// Both leases are placed; make both routers see the full map
		// now instead of at their next poll.
		for _, r := range routers {
			if err = r.RefreshPlacement(); err != nil {
				return nil, err
			}
			if n := len(r.Placement().Shards); n != len(c.floors) {
				return nil, fmt.Errorf("daemon %s sees %d placed shards, want %d", r.Daemon(), n, len(c.floors))
			}
		}
	}
	if st.gen, err = st.dial(entry); err != nil {
		return nil, err
	}
	if st.sub, err = st.dial(entry); err != nil {
		return nil, err
	}
	if err = registerSensors(c, st.gen); err != nil {
		return nil, err
	}
	if st.stream, err = st.gen.OpenIngestStream(); err != nil {
		return nil, err
	}
	return st, nil
}
