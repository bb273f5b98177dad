// Package mwrpc is MiddleWhere's distribution substrate — the
// substitute for the CORBA ORB (Orbacus) the paper deploys on. It
// implements a framed RPC protocol over TCP with three interaction
// patterns, matching what the middleware needs from CORBA:
//
//   - request/reply: clients call named methods and block for the
//     result (the pull mode of §7),
//   - server push: the server sends asynchronous messages tagged with a
//     stream name over the same connection (the push mode — trigger
//     notifications, §4.3), and
//   - streaming ingest: clients pipeline sequenced batch frames without
//     per-batch round trips; the server acknowledges cumulatively and
//     grants byte/batch credits that bound the in-flight window
//     (credit-based backpressure).
//
// Every frame is binary: a fixed 24-byte header carrying the magic
// 0xB1, frame kind, flags, a method code, the payload length, a
// correlation ID and a stream sequence number, followed by the
// payload. Both sides speak it from the first byte; there is no
// handshake. The transport carries the payload as bytes and never
// looks inside: a method has one Handler, and the caller and handler
// alone agree on the payload's encoding. The hot methods (batched
// ingest, Locate, region queries, notification pushes, stream batches
// and acks) hand-roll binary; the control plane carries JSON through
// the JSONHandler/CallJSON pair. A frame that does not start with the
// magic is malformed and drops the connection. Encode uses pooled
// buffers and one write per frame, so the steady-state encode path
// allocates nothing.
package mwrpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"middlewhere/internal/obs"
)

// maxFrame bounds a single message.
const maxFrame = 1 << 20

// binMagic is the first byte of every frame.
const binMagic = 0xB1

// Frame kinds (header byte 1).
const (
	kindReq         = 1
	kindResp        = 2
	kindPush        = 3
	kindStreamBatch = 4
	kindStreamAck   = 5
)

// Header flags (header byte 2). Bit 0 is unassigned: it once marked a
// binary payload, when the transport also carried JSON of its own.
// Writers leave it clear and readers ignore it, as the retired method
// codes 1 and 20 are left free.
const (
	flagError = 1 << 1 // response payload is an error message
	flagNamed = 1 << 2 // method/stream name prefixes the payload
	flagTrace = 1 << 3 // trace ID prefixes the payload
)

// binHeaderLen is the fixed header size: magic, kind, flags, method
// code, payload length (u32), correlation ID (u64), seq (u64).
const binHeaderLen = 24

// Codec names a frame codec.
//
// Deprecated: every connection speaks the binary frame. Codec and
// CodecBinary remain only for callers that still compare against them.
type Codec uint8

// CodecBinary is the one frame codec.
//
// Deprecated: see Codec.
const CodecBinary Codec = 1

// WirePref once chose between codecs at dial time.
//
// Deprecated: there is nothing to choose; WirePref and WireBinary
// remain only for callers that still name them.
type WirePref int

// WireBinary is the one wire preference.
//
// Deprecated: see WirePref.
const WireBinary WirePref = 0

// Frame-level metrics, cached once so the hot path is pure atomics.
var (
	mFramesSent     = obs.Default().Counter("mwrpc_frames_sent_total")
	mFramesRecv     = obs.Default().Counter("mwrpc_frames_received_total")
	mBytesSent      = obs.Default().Counter("mwrpc_bytes_sent_total")
	mBytesRecv      = obs.Default().Counter("mwrpc_bytes_received_total")
	mEncodeUs       = obs.Default().Histogram("mwrpc_frame_encode_us")
	mDecodeUs       = obs.Default().Histogram("mwrpc_frame_decode_us")
	mDecodeBad      = obs.Default().Counter("mwrpc_frames_malformed_total")
	mCallsTotal     = obs.Default().Counter("mwrpc_calls_total")
	mCallErrors     = obs.Default().Counter("mwrpc_call_errors_total")
	mPushesSent     = obs.Default().Counter("mwrpc_pushes_sent_total")
	mServedRequests = obs.Default().Counter("mwrpc_requests_served_total")
	mStreamSent     = obs.Default().Counter("mwrpc_stream_batches_sent_total")
	mStreamAcks     = obs.Default().Counter("mwrpc_stream_acks_sent_total")
)

// Sentinel errors.
var (
	ErrClosed      = errors.New("mwrpc: connection closed")
	ErrTimeout     = errors.New("mwrpc: call timed out")
	ErrNoMethod    = errors.New("mwrpc: unknown method")
	ErrFrameTooBig = errors.New("mwrpc: frame exceeds limit")
	// ErrNoCredit reports that a streaming send was refused because the
	// peer's credit window is exhausted; the caller should buffer or
	// shed and retry after an ack replenishes the window.
	ErrNoCredit = errors.New("mwrpc: stream credits exhausted")

	errBadMagic = errors.New("mwrpc: frame does not start with 0xB1")
)

// IsTransportErr reports whether err means the connection or the path
// to the peer failed, not the request, so a retry on a fresh
// connection can succeed: ErrClosed, ErrTimeout, or any error carrying
// a Timeout or Temporary method (net.Error, *net.OpError from a
// refused dial, *os.SyscallError). A handler's error arrives as a
// plain string error and is final.
func IsTransportErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) {
		return true
	}
	var timeout interface{ Timeout() bool }
	var temporary interface{ Temporary() bool }
	return errors.As(err, &timeout) || errors.As(err, &temporary)
}

// Appender writes a payload by extending buf and returning the
// extended slice; it must not retain buf. Used for zero-alloc encode
// straight into the pooled frame buffer.
type Appender func(buf []byte) []byte

// frame is the in-memory form of one message.
type frame struct {
	kind   uint8
	id     uint64
	seq    uint64
	method string // request method or push stream name
	trace  string
	errMsg string // response error
	// payload carries the body bytes; enc, when non-nil, appends the
	// body directly into the frame buffer instead (zero-copy encode).
	payload []byte
	enc     Appender
}

// ---------------------------------------------------------------------------
// Method code table

// Method codes compress well-known method and stream names to one
// header byte; code 0 means the name travels in the payload
// (flagNamed), so unknown methods still work. Codes 1, 20 and 21–29
// are unassigned: 1 named the retired single-reading ingest method and
// 20 the retired codec handshake (mwrpc.hello); both stay free so an
// older peer can never misread a reused code.
var methodCodeTable = []string{
	2:  "mw.ingestBatch",
	3:  "mw.registerSensor",
	4:  "mw.locate",
	5:  "mw.probInRegion",
	6:  "mw.objectsInRegion",
	7:  "mw.subscribe",
	8:  "mw.unsubscribe",
	9:  "mw.relate",
	10: "mw.route",
	11: "mw.proximity",
	12: "mw.coLocated",
	13: "mw.query",
	14: "mw.distribution",
	15: "mw.history",
	16: "mw.defineRegion",
	17: "mw.health",
	18: "mw.stats",
	19: "mw.streamOpen",
	30: "mw.notify",
}

var methodCodes = func() map[string]uint8 {
	m := make(map[string]uint8, len(methodCodeTable))
	for code, name := range methodCodeTable {
		if name != "" {
			m[name] = uint8(code)
		}
	}
	return m
}()

func codeToMethod(code uint8) string {
	if int(code) < len(methodCodeTable) {
		return methodCodeTable[code]
	}
	return ""
}

// ---------------------------------------------------------------------------
// Frame codec

// writeFrame encodes f and writes it as one buffer. The encode
// histogram covers marshal AND the framing write, so the per-frame
// figure matches wall clock on the remote path.
func writeFrame(w io.Writer, f frame) error {
	start := time.Now()
	buf := GetBuf()
	defer buf.Free()
	var err error
	if buf.B, err = appendBinaryFrame(buf.B, f); err != nil {
		return err
	}
	if _, err := w.Write(buf.B); err != nil {
		return err
	}
	mEncodeUs.Observe(float64(time.Since(start).Microseconds()))
	mFramesSent.Inc()
	mBytesSent.Add(uint64(len(buf.B)))
	return nil
}

// appendBinaryFrame appends the 24-byte header plus payload sections.
func appendBinaryFrame(b []byte, f frame) ([]byte, error) {
	flags := uint8(0)
	code := uint8(0)
	if f.errMsg != "" {
		flags |= flagError
	}
	if f.trace != "" {
		flags |= flagTrace
	}
	if f.method != "" {
		if c, ok := methodCodes[f.method]; ok {
			code = c
		} else {
			flags |= flagNamed
		}
	}
	b = append(b, binMagic, f.kind, flags, code)
	lenAt := len(b)
	b = AppendU32(b, 0) // payload length, patched below
	b = AppendU64(b, f.id)
	b = AppendU64(b, f.seq)
	bodyAt := len(b)
	if flags&flagNamed != 0 {
		b = AppendString(b, f.method)
	}
	if flags&flagTrace != 0 {
		b = AppendString(b, f.trace)
	}
	switch {
	case flags&flagError != 0:
		b = append(b, f.errMsg...)
	case f.enc != nil:
		b = f.enc(b)
	default:
		b = append(b, f.payload...)
	}
	n := len(b) - bodyAt
	if n > maxFrame {
		return nil, ErrFrameTooBig
	}
	binary.BigEndian.PutUint32(b[lenAt:], uint32(n))
	return b, nil
}

// readFrame reads one frame. A first byte other than the magic, or a
// header claiming more than maxFrame, is counted as malformed and
// returned as an error, which drops the connection. The decode
// histogram starts once the first byte has arrived — it covers the
// framing reads and the parse, not idle time waiting for traffic.
func readFrame(br *bufio.Reader) (frame, error) {
	b0, err := br.ReadByte()
	if err != nil {
		return frame{}, err
	}
	start := time.Now()
	if b0 != binMagic {
		mDecodeBad.Inc()
		return frame{}, errBadMagic
	}
	return readBinaryFrame(br, start)
}

func readBinaryFrame(br *bufio.Reader, start time.Time) (frame, error) {
	var hdr [binHeaderLen - 1]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return frame{}, err
	}
	f := frame{kind: hdr[0]}
	flags := hdr[1]
	code := hdr[2]
	n := binary.BigEndian.Uint32(hdr[3:7])
	if n > maxFrame {
		mDecodeBad.Inc()
		return frame{}, ErrFrameTooBig
	}
	f.id = binary.BigEndian.Uint64(hdr[7:15])
	f.seq = binary.BigEndian.Uint64(hdr[15:23])
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return frame{}, err
	}
	r := NewBinReader(body)
	if flags&flagNamed != 0 {
		name, err := r.String()
		if err != nil {
			mDecodeBad.Inc()
			return frame{}, fmt.Errorf("mwrpc: frame name: %w", err)
		}
		f.method = name
	} else if code != 0 {
		f.method = codeToMethod(code)
	}
	if flags&flagTrace != 0 {
		trace, err := r.String()
		if err != nil {
			mDecodeBad.Inc()
			return frame{}, fmt.Errorf("mwrpc: frame trace: %w", err)
		}
		f.trace = trace
	}
	rest := body[len(body)-r.Remaining():]
	if flags&flagError != 0 {
		f.errMsg = string(rest)
		if f.errMsg == "" {
			f.errMsg = "mwrpc: remote error"
		}
	} else {
		f.payload = rest
	}
	mDecodeUs.Observe(float64(time.Since(start).Microseconds()))
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(n) + binHeaderLen)
	return f, nil
}

// ---------------------------------------------------------------------------
// Server

// ServerConn is the server's view of one client connection. Handlers
// may retain it to push messages until OnClose fires.
type ServerConn struct {
	mu     sync.Mutex
	conn   net.Conn
	closed bool

	onClose []func()
}

// send writes one frame.
func (c *ServerConn) send(f frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return writeFrame(c.conn, f)
}

// Push sends an asynchronous message on a named stream, its payload
// appended by enc.
func (c *ServerConn) Push(stream string, enc Appender) error {
	err := c.send(frame{kind: kindPush, method: stream, enc: enc})
	if err == nil {
		mPushesSent.Inc()
	}
	return err
}

// StreamAck acknowledges a stream batch: seq is the highest contiguous
// sequence processed, and the payload carries the cumulative counts,
// per-reading rejects, and the credit grant.
func (c *ServerConn) StreamAck(id, seq uint64, payload []byte) error {
	err := c.send(frame{kind: kindStreamAck, id: id, seq: seq, payload: payload})
	if err == nil {
		mStreamAcks.Inc()
	}
	return err
}

// OnClose registers a cleanup callback run when the connection drops.
// If the connection is already closed the callback runs immediately.
func (c *ServerConn) OnClose(fn func()) {
	c.mu.Lock()
	closed := c.closed
	if !closed {
		c.onClose = append(c.onClose, fn)
	}
	c.mu.Unlock()
	if closed {
		fn()
	}
}

func (c *ServerConn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cbs := c.onClose
	c.onClose = nil
	c.conn.Close()
	c.mu.Unlock()
	for _, fn := range cbs {
		fn()
	}
}

// respond sends a response frame: the payload enc appends, or the
// handler's error.
func (c *ServerConn) respond(id uint64, enc Appender, herr error) error {
	f := frame{kind: kindResp, id: id, enc: enc}
	if herr != nil {
		f.errMsg = herr.Error()
	}
	return c.send(f)
}

// Handler serves one method. payload is the request body, valid only
// for the duration of the call; trace is the obs trace ID carried on
// the frame ("" untraced), so the server side can continue a span
// chain begun in the client. It returns an Appender that encodes the
// response body (nil for an empty one). It runs on the connection's
// reader goroutine; slow work should be handed off.
type Handler func(conn *ServerConn, payload []byte, trace string) (Appender, error)

// JSONHandler adapts a control-plane method whose request and reply
// are JSON: the body is unmarshalled into an A (an empty body leaves
// the zero value) and fn's result is marshalled as the reply.
func JSONHandler[A any](fn func(conn *ServerConn, args A, trace string) (any, error)) Handler {
	return func(conn *ServerConn, payload []byte, trace string) (Appender, error) {
		var a A
		if len(payload) > 0 {
			if err := json.Unmarshal(payload, &a); err != nil {
				return nil, err
			}
		}
		result, err := fn(conn, a, trace)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(result)
		if err != nil {
			return nil, fmt.Errorf("mwrpc: marshal result: %w", err)
		}
		return func(b []byte) []byte { return append(b, body...) }, nil
	}
}

// StreamBatchFunc consumes one streaming-ingest batch frame. It runs
// on the connection's reader goroutine — processing inline is what
// paces the stream (the next frame is not read until this returns) —
// and is responsible for sending the StreamAck with a credit grant.
// trace is the obs trace ID carried on the frame ("" untraced).
type StreamBatchFunc func(conn *ServerConn, id, seq uint64, payload []byte, trace string)

// Server dispatches framed requests to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	onStream StreamBatchFunc
	ln       net.Listener
	conns    map[*ServerConn]struct{}
	wg       sync.WaitGroup
	closed   bool
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[*ServerConn]struct{}),
	}
}

// Register installs the handler for a method name. Each method has
// exactly one handler: registering a name twice panics.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.handlers[method]; dup {
		panic("mwrpc: method " + method + " registered twice")
	}
	s.handlers[method] = h
}

// OnStreamBatch installs the consumer for streaming-ingest batch
// frames (at most one per server).
func (s *Server) OnStreamBatch(fn StreamBatchFunc) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onStream = fn
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free
// port) and serves in background goroutines until Close. It returns
// the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("mwrpc: listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			sc := &ServerConn{conn: conn}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				sc.close()
				return
			}
			s.conns[sc] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serveConn(sc)
			}()
		}
	}()
	return ln.Addr().String(), nil
}

func (s *Server) serveConn(sc *ServerConn) {
	defer func() {
		sc.close()
		s.mu.Lock()
		delete(s.conns, sc)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(sc.conn, 16<<10)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		switch f.kind {
		case kindReq:
		case kindStreamBatch:
			s.mu.Lock()
			fn := s.onStream
			s.mu.Unlock()
			if fn != nil {
				fn(sc, f.id, f.seq, f.payload, f.trace)
			}
			continue
		default:
			continue
		}
		s.mu.Lock()
		h := s.handlers[f.method]
		s.mu.Unlock()
		if h == nil {
			_ = sc.respond(f.id, nil, fmt.Errorf("%w: %s", ErrNoMethod, f.method))
			continue
		}
		mServedRequests.Inc()
		enc, herr := h(sc, f.payload, f.trace)
		if err := sc.respond(f.id, enc, herr); err != nil {
			return
		}
	}
}

// Close stops the listener, drops all connections, and waits for the
// serving goroutines to exit.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	ln := s.ln
	conns := make([]*ServerConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
}

// ---------------------------------------------------------------------------
// Client

// PushFunc consumes pushed messages on a stream. The payload is
// only valid for the duration of the call.
type PushFunc func(payload []byte)

// StreamAckFunc consumes stream acknowledgements. The payload is only
// valid for the duration of the call.
type StreamAckFunc func(id, seq uint64, payload []byte)

// Client is a connection to an mwrpc server.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	nextID  uint64
	pending map[uint64]chan frame
	onPush  map[string]PushFunc
	onAck   StreamAckFunc
	closed  bool
	done    chan struct{}

	// Timeout bounds each Call; zero means 10 seconds.
	Timeout time.Duration
}

// Options configures dialing and per-call behaviour. The zero value
// uses the default timeouts.
type Options struct {
	// DialTimeout bounds the TCP connect; zero means 5 seconds.
	DialTimeout time.Duration
	// CallTimeout bounds each Call; zero means 10 seconds.
	CallTimeout time.Duration
}

// DefaultDialTimeout and DefaultCallTimeout are the zero-value
// Options behaviours.
const (
	DefaultDialTimeout = 5 * time.Second
	DefaultCallTimeout = 10 * time.Second
)

func (o Options) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return DefaultDialTimeout
	}
	return o.DialTimeout
}

// Dial connects to an mwrpc server with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to an mwrpc server with explicit timeouts. It
// returns once the TCP connection is up: no frame is exchanged until
// the first call.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("mwrpc: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.Timeout = opts.CallTimeout
	return c, nil
}

// NewClient runs the mwrpc client protocol over an existing connection
// (tests wrap conns in fault injectors before handing them in).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		br:      bufio.NewReaderSize(conn, 16<<10),
		pending: make(map[uint64]chan frame),
		onPush:  make(map[string]PushFunc),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Done is closed when the connection dies — by Close or by a transport
// failure. Reconnecting layers watch it to know when to redial.
func (c *Client) Done() <-chan struct{} { return c.done }

func (c *Client) readLoop() {
	defer close(c.done)
	for {
		f, err := readFrame(c.br)
		if err != nil {
			c.failAll()
			return
		}
		switch f.kind {
		case kindResp:
			c.mu.Lock()
			ch := c.pending[f.id]
			delete(c.pending, f.id)
			c.mu.Unlock()
			if ch != nil {
				ch <- f
			}
		case kindPush:
			c.mu.Lock()
			fn := c.onPush[f.method]
			c.mu.Unlock()
			if fn != nil {
				fn(f.payload)
			}
		case kindStreamAck:
			c.mu.Lock()
			fn := c.onAck
			c.mu.Unlock()
			if fn != nil {
				fn(f.id, f.seq, f.payload)
			}
		}
	}
}

func (c *Client) failAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
}

// OnPush installs the consumer for a push stream. It replaces any
// previous consumer for that stream.
func (c *Client) OnPush(stream string, fn PushFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPush[stream] = fn
}

// OnStreamAck installs the consumer for stream acknowledgements. The
// handler runs on the read loop and must be fast (credit bookkeeping).
func (c *Client) OnStreamAck(fn StreamAckFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onAck = fn
}

// Call invokes a remote method: enc appends the request body straight
// into the pooled frame buffer (nil for an empty body), dec parses the
// response body, which is only valid during the call (nil discards
// it). trace, when not empty, rides the request frame so the server
// can attribute its work to the originating operation.
func (c *Client) Call(method, trace string, enc Appender, dec func(payload []byte) error) error {
	err := c.roundTrip(frame{kind: kindReq, method: method, enc: enc, trace: trace}, dec)
	mCallsTotal.Inc()
	if err != nil {
		mCallErrors.Inc()
	}
	return err
}

// CallJSON is Call for a control-plane method served by a JSONHandler:
// params is marshalled as the request body and the reply is
// unmarshalled into result (which may be nil to discard it).
func CallJSON(c *Client, method, trace string, params, result any) error {
	body, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("mwrpc: marshal params: %w", err)
	}
	return c.Call(method, trace, func(b []byte) []byte { return append(b, body...) },
		func(payload []byte) error {
			if result == nil {
				return nil
			}
			if err := json.Unmarshal(payload, result); err != nil {
				return fmt.Errorf("mwrpc: unmarshal result: %w", err)
			}
			return nil
		})
}

// roundTrip sends a request frame and decodes its response payload
// via dec (nil discards it).
func (c *Client) roundTrip(f frame, dec func(payload []byte) error) error {
	ch := make(chan frame, 1)
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.nextID++
	f.id = c.nextID
	id := f.id
	c.pending[id] = ch
	err := writeFrame(c.conn, f)
	c.mu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return err
	}

	timeout := c.Timeout
	if timeout == 0 {
		timeout = DefaultCallTimeout
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case m, ok := <-ch:
		if !ok {
			return ErrClosed
		}
		if m.errMsg != "" {
			return errors.New(m.errMsg)
		}
		if dec == nil {
			return nil
		}
		return dec(m.payload)
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTimeout, f.method)
	}
}

// StreamSend fires one sequenced stream-batch frame, its payload
// appended by enc, without waiting for a response; acknowledgements
// arrive via OnStreamAck. trace, when not empty, lets the server-side
// batch consumer continue the sender's trace.
func (c *Client) StreamSend(id, seq uint64, trace string, enc Appender) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	f := frame{kind: kindStreamBatch, id: id, seq: seq, trace: trace, enc: enc}
	if err := writeFrame(c.conn, f); err != nil {
		return err
	}
	mStreamSent.Inc()
	return nil
}

// Close drops the connection and waits for the reader to exit.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.conn.Close()
	<-c.done
}
