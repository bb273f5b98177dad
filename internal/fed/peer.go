package fed

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"middlewhere/internal/mwrpc"
	"middlewhere/internal/obs"
)

// ErrPeerDown reports that a peer could not be reached: its circuit
// breaker is open, or every attempt of a call failed.
var ErrPeerDown = errors.New("fed: peer unavailable")

// breaker states.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// peer is one remote daemon as seen from this router: a lazily dialed
// mwrpc client, a circuit breaker, and capped-backoff retry. All calls
// go through call(), which owns the failure accounting.
type peer struct {
	name string
	// self is the local daemon's federation name — the label stamped on
	// spans this peer records (the waiting happens here, not remotely).
	self string
	cfg  peerConfig

	mu          sync.Mutex
	addr        string
	cli         *mwrpc.Client
	consecFails int
	openUntil   time.Time
	// probing marks the single half-open trial in flight, so a burst
	// of callers cannot all rush an unhealthy peer at once.
	probing bool
	lastErr error

	mCalls   *obs.Counter
	mFails   *obs.Counter
	mRetries *obs.Counter
	mOpens   *obs.Counter
	mState   *obs.Gauge
}

// peerConfig is the call policy every peer of a router shares.
type peerConfig struct {
	dialTimeout time.Duration
	callTimeout time.Duration
	attempts    int
	backoffBase time.Duration
	backoffMax  time.Duration
	threshold   int
	cooldown    time.Duration
	now         func() time.Time
	sleep       func(time.Duration)
}

func newPeer(name, self string, cfg peerConfig) *peer {
	return &peer{
		name:     name,
		self:     self,
		cfg:      cfg,
		mCalls:   obs.Default().Counter(obs.LabeledName("fed_peer_calls_total", "peer", name)),
		mFails:   obs.Default().Counter(obs.LabeledName("fed_peer_failures_total", "peer", name)),
		mRetries: obs.Default().Counter(obs.LabeledName("fed_peer_retries_total", "peer", name)),
		mOpens:   obs.Default().Counter(obs.LabeledName("fed_breaker_opens_total", "peer", name)),
		mState:   obs.Default().Gauge(obs.LabeledName("fed_breaker_state", "peer", name)),
	}
}

// setAddr points the peer at a (possibly new) address. A changed
// address drops the cached connection — the daemon restarted — and
// closes the breaker so the fresh address gets an immediate chance.
func (p *peer) setAddr(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addr == addr {
		return
	}
	p.addr = addr
	if p.cli != nil {
		p.cli.Close()
		p.cli = nil
	}
	p.consecFails = 0
	p.openUntil = time.Time{}
	p.mState.Set(0)
}

// state reports the breaker state without changing it.
func (p *peer) state() (string, int, string, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := breakerClosed
	if !p.openUntil.IsZero() {
		if p.cfg.now().Before(p.openUntil) {
			st = breakerOpen
		} else {
			st = breakerHalfOpen
		}
	}
	lastErr := ""
	if p.lastErr != nil {
		lastErr = p.lastErr.Error()
	}
	return st, p.consecFails, p.addr, lastErr
}

// admit decides whether a call may proceed under the breaker: closed
// admits everyone, open admits no one, and half-open (cooldown
// elapsed) admits exactly one trial at a time.
func (p *peer) admit() (trial bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.addr == "" {
		return false, fmt.Errorf("%w: %s has no address", ErrPeerDown, p.name)
	}
	if p.openUntil.IsZero() {
		return false, nil
	}
	if p.cfg.now().Before(p.openUntil) {
		return false, fmt.Errorf("%w: %s breaker open", ErrPeerDown, p.name)
	}
	if p.probing {
		return false, fmt.Errorf("%w: %s half-open trial in flight", ErrPeerDown, p.name)
	}
	p.probing = true
	return true, nil
}

func (p *peer) noteSuccess(trial bool) {
	p.mu.Lock()
	p.consecFails = 0
	p.openUntil = time.Time{}
	p.lastErr = nil
	if trial {
		p.probing = false
	}
	p.mu.Unlock()
	p.mState.Set(0)
}

func (p *peer) noteFailure(trial bool, err error) {
	p.mu.Lock()
	p.consecFails++
	p.lastErr = err
	opened := false
	if trial || p.consecFails >= p.cfg.threshold {
		p.openUntil = p.cfg.now().Add(p.cfg.cooldown)
		opened = true
	}
	if trial {
		p.probing = false
	}
	p.mu.Unlock()
	if opened {
		p.mOpens.Inc()
		p.mState.Set(1)
	}
}

// client returns a connected mwrpc client, dialing if needed. Caller
// does not hold p.mu during the dial.
func (p *peer) client() (*mwrpc.Client, error) {
	p.mu.Lock()
	cli, addr := p.cli, p.addr
	p.mu.Unlock()
	if cli != nil {
		select {
		case <-cli.Done():
			// Connection died; fall through to redial.
		default:
			return cli, nil
		}
	}
	if addr == "" {
		return nil, fmt.Errorf("%w: %s has no address", ErrPeerDown, p.name)
	}
	fresh, err := mwrpc.DialOptions(addr, mwrpc.Options{
		DialTimeout: p.cfg.dialTimeout,
		CallTimeout: p.cfg.callTimeout,
	})
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	if p.cli != nil && p.cli != cli {
		// Another goroutine redialed first; use theirs.
		fresh.Close()
		cli = p.cli
		p.mu.Unlock()
		return cli, nil
	}
	if cli != nil {
		cli.Close()
	}
	p.cli = fresh
	p.mu.Unlock()
	return fresh, nil
}

// call runs attempt — one request on the peer's connection — with
// per-attempt timeout, capped exponential backoff between attempts,
// and breaker accounting. It returns ErrPeerDown-wrapped errors when
// the peer is unreachable; application-level errors (the method ran
// and said no) pass through and count as success for the breaker.
// Under a trace ("" untraced), retry backoff sleeps are recorded as
// fed_backoff spans — that is where a degraded peer's latency hides —
// attributed to the local daemon (the waiting happens here); attempt
// stamps the trace on its frame so the remote handler adopts it.
func (p *peer) call(trace string, attempt func(*mwrpc.Client) error) error {
	trial, err := p.admit()
	if err != nil {
		p.mFails.Inc()
		return err
	}
	attempts := p.cfg.attempts
	if trial {
		attempts = 1 // half-open grants one trial, not a retry burst
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			backoff := p.cfg.backoffBase << (i - 1)
			if backoff > p.cfg.backoffMax {
				backoff = p.cfg.backoffMax
			}
			if trace != "" {
				sleepStart := time.Now()
				p.cfg.sleep(backoff)
				obs.SpanSinceD(trace, "fed_backoff", p.self, sleepStart)
			} else {
				p.cfg.sleep(backoff)
			}
			p.mRetries.Inc()
		}
		p.mCalls.Inc()
		cli, err := p.client()
		if err != nil {
			last = err
			continue
		}
		err = attempt(cli)
		if err == nil || !mwrpc.IsTransportErr(err) {
			p.noteSuccess(trial)
			return err
		}
		last = err
	}
	p.mFails.Inc()
	p.noteFailure(trial, last)
	return fmt.Errorf("%w: %s: %v", ErrPeerDown, p.name, last)
}

// counters reports the peer's lifetime call/failure/retry/open counts.
func (p *peer) counters() (calls, fails, retries, opens uint64) {
	return p.mCalls.Value(), p.mFails.Value(), p.mRetries.Value(), p.mOpens.Value()
}

// close drops the cached connection.
func (p *peer) close() {
	p.mu.Lock()
	if p.cli != nil {
		p.cli.Close()
		p.cli = nil
	}
	p.mu.Unlock()
}
