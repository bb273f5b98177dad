// Package faultnet is MiddleWhere's network fault-injection harness: a
// programmable TCP proxy and net.Conn wrapper that inject the failures
// a distributed deployment actually sees — dropped messages, latency,
// partitions, connection resets, and mid-frame truncation — on demand
// and deterministically (every probabilistic decision draws from a
// seeded stream), so chaos tests are reproducible bit-for-bit.
//
// The proxy understands mwrpc's framing: with FrameDropRate set it
// parses each frame (a 24-byte header carrying the payload length,
// then the payload) and decides per frame whether to forward it.
// Because TCP cannot lose bytes silently — a byte stream either
// delivers in order or the connection dies — dropping a frame also
// severs the carrying connection, exactly as a link flap would surface
// to the endpoints.
// Raw (non-framed) traffic can instead be delayed, truncated after a
// byte budget, blackholed (partition), or reset.
//
// Typical use from a test:
//
//	proxy, _ := faultnet.NewProxy(serverAddr, faultnet.Config{Seed: 1, FrameDropRate: 0.1})
//	defer proxy.Close()
//	client, _ := remote.DialLocation(proxy.Addr()) // sees a flaky network
//	proxy.KillConnections()                        // forced mid-session disconnect
//	proxy.Partition()                              // blackhole: conns stall, dials hang
//	proxy.Heal()
package faultnet

import (
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Config programs the injected faults. The zero value forwards
// everything untouched (a transparent proxy).
type Config struct {
	// Seed fixes the random stream; chaos runs with the same seed and
	// traffic make the same drop decisions.
	Seed int64
	// FrameDropRate is the probability each parsed frame is dropped.
	// Dropping a frame severs the carrying connection (TCP delivers in
	// order or dies; it never loses bytes silently). Non-zero rates
	// switch the proxy into frame-aware forwarding, which assumes
	// mwrpc's 24-byte frame header.
	FrameDropRate float64
	// Delay adds fixed latency before each forwarded frame or chunk.
	Delay time.Duration
	// Jitter adds a uniform random [0, Jitter) on top of Delay.
	Jitter time.Duration
	// TruncateAfter, when positive, cuts each connection after that
	// many bytes have been forwarded in one direction — mid-frame if
	// the budget lands there.
	TruncateAfter int64
	// MaxFrame bounds a parsed frame in frame-aware mode; larger
	// frames sever the connection. Zero means 1 MiB (mwrpc's cap).
	MaxFrame int
}

func (c Config) maxFrame() int {
	if c.MaxFrame <= 0 {
		return 1 << 20
	}
	return c.MaxFrame
}

// Stats counts what the proxy did; chaos tests assert against it.
type Stats struct {
	// Accepted is the number of client connections accepted.
	Accepted int
	// ForwardedFrames counts frames relayed in frame-aware mode.
	ForwardedFrames int
	// DroppedFrames counts frames discarded (each also severed its
	// connection).
	DroppedFrames int
	// Killed counts connections severed by faults or KillConnections.
	Killed int
	// RefusedDials counts dials refused while partitioned.
	RefusedDials int
}

// Proxy is a fault-injecting TCP relay in front of one target address.
type Proxy struct {
	target string
	cfg    Config
	ln     net.Listener

	mu          sync.Mutex
	rng         *rand.Rand
	conns       map[*link]struct{}
	partitioned bool
	stats       Stats
	closed      bool
	wg          sync.WaitGroup
}

// link is one client<->target connection pair.
type link struct {
	client, target net.Conn
	once           sync.Once
}

func (l *link) sever() {
	l.once.Do(func() {
		l.client.Close()
		l.target.Close()
	})
}

// NewProxy starts a proxy on a fresh loopback port in front of target.
func NewProxy(target string, cfg Config) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		target: target,
		cfg:    cfg,
		ln:     ln,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		conns:  make(map[*link]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; point clients here.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Stats returns a snapshot of the fault counters.
func (p *Proxy) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Partition blackholes the proxy: existing connections are severed and
// new dials are accepted but never forwarded (the peer sees silence,
// not a refusal — the harsher failure mode for timeout testing).
func (p *Proxy) Partition() {
	p.mu.Lock()
	p.partitioned = true
	p.mu.Unlock()
	p.KillConnections()
}

// Heal ends a partition; subsequent dials flow normally.
func (p *Proxy) Heal() {
	p.mu.Lock()
	p.partitioned = false
	p.mu.Unlock()
}

// KillConnections severs every live connection pair — a forced
// mid-session disconnect. The listener keeps accepting, so clients can
// reconnect immediately.
func (p *Proxy) KillConnections() {
	p.mu.Lock()
	links := make([]*link, 0, len(p.conns))
	for l := range p.conns {
		links = append(links, l)
	}
	p.stats.Killed += len(links)
	p.mu.Unlock()
	for _, l := range links {
		l.sever()
	}
}

// Close shuts the proxy down and severs everything.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.ln.Close()
	p.KillConnections()
	p.wg.Wait()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			return
		}
		p.stats.Accepted++
		partitioned := p.partitioned
		p.mu.Unlock()
		if partitioned {
			// Blackhole: hold the connection open, forward nothing.
			// It is severed by Heal-then-Kill or Close.
			p.mu.Lock()
			p.stats.RefusedDials++
			p.mu.Unlock()
			p.holdBlackholed(client)
			continue
		}
		target, err := net.DialTimeout("tcp", p.target, 5*time.Second)
		if err != nil {
			client.Close()
			continue
		}
		l := &link{client: client, target: target}
		p.mu.Lock()
		p.conns[l] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.pipe(l, client, target)
		go p.pipe(l, target, client)
	}
}

// holdBlackholed parks a partitioned connection until Close severs it.
func (p *Proxy) holdBlackholed(conn net.Conn) {
	l := &link{client: conn, target: nopConn{}}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.conns[l] = struct{}{}
	p.mu.Unlock()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		// Drain and discard so the peer's writes don't block forever at
		// the kernel buffer — bytes vanish, as in a true blackhole.
		io.Copy(io.Discard, conn)
		l.sever()
		p.mu.Lock()
		delete(p.conns, l)
		p.mu.Unlock()
	}()
}

// nopConn stands in for the missing target side of a blackholed link.
type nopConn struct{}

func (nopConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (nopConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// pipe relays one direction of a link, applying the configured faults,
// and severs the whole link when its side ends.
func (p *Proxy) pipe(l *link, src, dst net.Conn) {
	defer p.wg.Done()
	defer func() {
		l.sever()
		p.mu.Lock()
		delete(p.conns, l)
		p.mu.Unlock()
	}()
	if p.cfg.FrameDropRate > 0 {
		p.pipeFrames(l, src, dst)
		return
	}
	p.pipeRaw(src, dst)
}

// sleepFault applies the configured latency for one forwarded unit.
func (p *Proxy) sleepFault() {
	d := p.cfg.Delay
	if p.cfg.Jitter > 0 {
		p.mu.Lock()
		d += time.Duration(p.rng.Int63n(int64(p.cfg.Jitter)))
		p.mu.Unlock()
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// dropFrame draws one seeded decision.
func (p *Proxy) dropFrame() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rng.Float64() < p.cfg.FrameDropRate
}

// An mwrpc frame starts with the magic 0xB1; its 24-byte header holds
// the payload length at bytes 4..8.
const (
	binMagic     = 0xB1
	binHeaderLen = 24
)

// pipeFrames relays whole frames; a dropped frame severs the link, as
// does a frame without the magic or longer than the cap.
func (p *Proxy) pipeFrames(l *link, src, dst net.Conn) {
	var budget int64 = -1
	if p.cfg.TruncateAfter > 0 {
		budget = p.cfg.TruncateAfter
	}
	for {
		var hdr [binHeaderLen]byte
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.BigEndian.Uint32(hdr[4:8])
		if hdr[0] != binMagic || int(n) > p.cfg.maxFrame() {
			p.countKill()
			return
		}
		frame := make([]byte, binHeaderLen+int(n))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(src, frame[binHeaderLen:]); err != nil {
			return
		}
		if !p.forwardFrame(frame, dst, &budget) {
			return
		}
	}
}

// forwardFrame applies the drop/delay/truncate faults to one complete
// frame and forwards it. It reports whether the link should live on.
func (p *Proxy) forwardFrame(out []byte, dst net.Conn, budget *int64) bool {
	if p.dropFrame() {
		p.mu.Lock()
		p.stats.DroppedFrames++
		p.stats.Killed++
		p.mu.Unlock()
		return false // caller's defer severs the link: the lost frame becomes a link flap
	}
	p.sleepFault()
	if *budget >= 0 && int64(len(out)) > *budget {
		dst.Write(out[:*budget])
		p.countKill()
		return false
	}
	if *budget >= 0 {
		*budget -= int64(len(out))
	}
	if _, err := dst.Write(out); err != nil {
		return false
	}
	p.mu.Lock()
	p.stats.ForwardedFrames++
	p.mu.Unlock()
	return true
}

// pipeRaw relays an opaque byte stream in chunks.
func (p *Proxy) pipeRaw(src, dst net.Conn) {
	var sent int64
	buf := make([]byte, 32*1024)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.sleepFault()
			chunk := buf[:n]
			if p.cfg.TruncateAfter > 0 && sent+int64(n) > p.cfg.TruncateAfter {
				chunk = chunk[:p.cfg.TruncateAfter-sent]
				dst.Write(chunk)
				p.countKill()
				return
			}
			if _, werr := dst.Write(chunk); werr != nil {
				return
			}
			sent += int64(n)
		}
		if err != nil {
			return
		}
	}
}

func (p *Proxy) countKill() {
	p.mu.Lock()
	p.stats.Killed++
	p.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Conn wrapper

// ErrInjected is returned by a wrapped connection when a configured
// fault fires on Read or Write.
var ErrInjected = errors.New("faultnet: injected fault")

// ConnConfig programs a wrapped net.Conn.
type ConnConfig struct {
	// Seed fixes the random stream.
	Seed int64
	// ReadErrRate / WriteErrRate are per-call probabilities of failing
	// with ErrInjected (and closing the underlying conn, as a real
	// transport error would leave it unusable).
	ReadErrRate, WriteErrRate float64
	// Delay stalls each Read and Write.
	Delay time.Duration
	// FailAfterBytes, when positive, fails every operation once that
	// many bytes have moved in either direction.
	FailAfterBytes int64
}

// Conn wraps a net.Conn with injected faults; it is usable anywhere a
// net.Conn is — handed to an mwrpc client, a test server, or any other
// component — without standing up a proxy.
type Conn struct {
	net.Conn

	mu    sync.Mutex
	cfg   ConnConfig
	rng   *rand.Rand
	moved int64
}

// Wrap decorates conn with the configured faults.
func Wrap(conn net.Conn, cfg ConnConfig) *Conn {
	return &Conn{Conn: conn, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// fault decides whether this operation fails, charging n bytes.
func (c *Conn) fault(rate float64, n int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.moved += int64(n)
	if c.cfg.FailAfterBytes > 0 && c.moved > c.cfg.FailAfterBytes {
		return true
	}
	return rate > 0 && c.rng.Float64() < rate
}

// Read applies read-side faults.
func (c *Conn) Read(b []byte) (int, error) {
	if c.cfg.Delay > 0 {
		time.Sleep(c.cfg.Delay)
	}
	if c.fault(c.cfg.ReadErrRate, 0) {
		c.Conn.Close()
		return 0, ErrInjected
	}
	n, err := c.Conn.Read(b)
	c.mu.Lock()
	c.moved += int64(n)
	c.mu.Unlock()
	return n, err
}

// Write applies write-side faults.
func (c *Conn) Write(b []byte) (int, error) {
	if c.cfg.Delay > 0 {
		time.Sleep(c.cfg.Delay)
	}
	if c.fault(c.cfg.WriteErrRate, len(b)) {
		c.Conn.Close()
		return 0, ErrInjected
	}
	return c.Conn.Write(b)
}
