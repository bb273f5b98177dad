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
// Two codecs share the connection. The mandatory fallback is the
// original length-prefixed JSON envelope (4-byte big-endian length +
// JSON object), which every peer speaks. At dial time a client may
// negotiate the compact binary codec ("mwrpc.hello"): fixed 24-byte
// headers carrying frame kind, flags, a method code, the payload
// length, a correlation ID, and a stream sequence number, followed by
// the payload. Hot payloads (batched ingest, notification pushes,
// region queries) are hand-rolled binary; everything else travels as
// JSON bytes inside binary framing. Encode uses pooled buffers and one
// write per frame, so the steady-state encode path allocates nothing.
//
// A binary frame's first byte is the magic 0xB1; a JSON frame's first
// byte is always 0x00 (the high byte of a length ≤ 1 MiB), so the read
// side detects the codec per frame and negotiation only ever gates the
// write side. Old peers that never negotiate see pure JSON.
package mwrpc

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"time"

	"middlewhere/internal/obs"
)

// maxFrame bounds a single message.
const maxFrame = 1 << 20

// binMagic marks a binary frame; JSON frames always begin 0x00.
const binMagic = 0xB1

// Frame kinds (binary byte 1; JSON "kind" strings map onto these).
const (
	kindReq         = 1
	kindResp        = 2
	kindPush        = 3
	kindStreamBatch = 4
	kindStreamAck   = 5
)

// Header flags (binary byte 2).
const (
	flagBinaryPayload = 1 << 0 // payload is hand-rolled binary, not JSON
	flagError         = 1 << 1 // response payload is an error message
	flagNamed         = 1 << 2 // method/stream name prefixes the payload
	flagTrace         = 1 << 3 // trace ID prefixes the payload
)

// binHeaderLen is the fixed binary header size: magic, kind, flags,
// method code, payload length (u32), correlation ID (u64), seq (u64).
const binHeaderLen = 24

// Codec identifies a negotiated wire codec.
type Codec uint8

// Codecs.
const (
	CodecJSON Codec = iota
	CodecBinary
)

// String names the codec as it appears in negotiation and metrics.
func (c Codec) String() string {
	if c == CodecBinary {
		return "binary"
	}
	return "json"
}

// WirePref says which codec a dialer wants.
type WirePref int

// Wire preferences. The zero value negotiates binary with a JSON
// fallback, so new stacks get the compact codec and old daemons keep
// working.
const (
	// WireAuto negotiates binary and falls back to JSON when the peer
	// declines or predates negotiation.
	WireAuto WirePref = iota
	// WireJSON skips negotiation and speaks the JSON envelope only.
	WireJSON
	// WireBinary requires the binary codec; dialing fails if the peer
	// declines.
	WireBinary
)

// WireEnv is the environment knob the CI compat matrix sets:
// "binary", "json", or a "client/daemon" pair such as "json/binary".
const WireEnv = "MW_WIRE"

// ParseWire maps one knob word to a preference; unknown words are
// Auto. "binary" prefers binary but keeps the JSON fallback — that is
// what lets the compat matrix pair a binary-preferring client with a
// JSON-only daemon — while "binary!" demands it and fails the dial if
// the peer declines.
func ParseWire(s string) WirePref {
	switch strings.TrimSpace(s) {
	case "json":
		return WireJSON
	case "binary!":
		return WireBinary
	default: // "binary", "auto", ""
		return WireAuto
	}
}

// WireFromEnv reads MW_WIRE and returns the client-side dial
// preference and the daemon-side preference (WireJSON means the daemon
// declines binary negotiation). A single word applies to both roles;
// "client/daemon" splits them.
func WireFromEnv(env string) (client, daemon WirePref) {
	if i := strings.IndexByte(env, '/'); i >= 0 {
		return ParseWire(env[:i]), ParseWire(env[i+1:])
	}
	p := ParseWire(env)
	return p, p
}

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

	// Per-codec traffic and negotiation outcomes.
	mSentJSON   = obs.Default().Counter(`mwrpc_codec_frames_sent_total{name="json"}`)
	mSentBin    = obs.Default().Counter(`mwrpc_codec_frames_sent_total{name="binary"}`)
	mRecvJSON   = obs.Default().Counter(`mwrpc_codec_frames_received_total{name="json"}`)
	mRecvBin    = obs.Default().Counter(`mwrpc_codec_frames_received_total{name="binary"}`)
	mNegoJSON   = obs.Default().Counter(`mwrpc_codec_negotiated_total{name="json"}`)
	mNegoBin    = obs.Default().Counter(`mwrpc_codec_negotiated_total{name="binary"}`)
	mStreamSent = obs.Default().Counter("mwrpc_stream_batches_sent_total")
	mStreamAcks = obs.Default().Counter("mwrpc_stream_acks_sent_total")
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
)

// Appender writes a binary payload by extending buf and returning the
// extended slice; it must not retain buf. Used for zero-alloc encode
// straight into the pooled frame buffer.
type Appender func(buf []byte) []byte

// wire is the JSON on-the-wire message envelope (the fallback codec).
type wire struct {
	// Kind is "req", "resp", "push", "sbatch", or "sack".
	Kind string `json:"kind"`
	// ID correlates requests and responses; for stream frames it is the
	// stream ID.
	ID uint64 `json:"id,omitempty"`
	// Seq orders stream batches and cumulatively acknowledges them.
	Seq uint64 `json:"seq,omitempty"`
	// Method names the called procedure (requests).
	Method string `json:"method,omitempty"`
	// Params carries the request/stream-batch payload.
	Params json.RawMessage `json:"params,omitempty"`
	// Result carries the response/push/ack payload.
	Result json.RawMessage `json:"result,omitempty"`
	// Error carries a response error message.
	Error string `json:"error,omitempty"`
	// Stream names the push channel (pushes).
	Stream string `json:"stream,omitempty"`
	// Trace carries an obs trace ID so a notification on the server can
	// be attributed to the sensor reading (and client) that caused it.
	Trace string `json:"trace,omitempty"`
}

// frame is the codec-independent in-memory form of one message.
type frame struct {
	kind   uint8
	id     uint64
	seq    uint64
	method string // request method or push stream name
	trace  string
	errMsg string // response error
	binary bool   // payload is hand-rolled binary
	// payload carries the body bytes; enc, when non-nil, appends the
	// body directly into the frame buffer instead (zero-copy encode).
	payload []byte
	enc     Appender
}

func kindString(k uint8) string {
	switch k {
	case kindReq:
		return "req"
	case kindResp:
		return "resp"
	case kindPush:
		return "push"
	case kindStreamBatch:
		return "sbatch"
	case kindStreamAck:
		return "sack"
	}
	return ""
}

func kindFromString(s string) uint8 {
	switch s {
	case "req":
		return kindReq
	case "resp":
		return kindResp
	case "push":
		return kindPush
	case "sbatch":
		return kindStreamBatch
	case "sack":
		return kindStreamAck
	}
	return 0
}

// ---------------------------------------------------------------------------
// Method code table

// Method codes compress well-known method and stream names to one
// header byte; code 0 means the name travels in the payload
// (flagNamed), so unknown methods still work. Codes 1 and 21–29 are
// unassigned; 1 named the retired single-reading ingest method and
// stays free so an older peer can never misread a reused code.
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
	20: "mwrpc.hello",
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

// writeFrame encodes f in the requested codec and writes it as one
// buffer. The encode histogram covers marshal AND the framing write,
// so the per-frame figure matches wall clock on the remote path.
func writeFrame(w io.Writer, f frame, bin bool) error {
	start := time.Now()
	buf := GetBuf()
	defer buf.Free()
	var err error
	if bin {
		buf.B, err = appendBinaryFrame(buf.B, f)
	} else {
		buf.B, err = appendJSONFrame(buf.B, f)
	}
	if err != nil {
		return err
	}
	if _, err := w.Write(buf.B); err != nil {
		return err
	}
	mEncodeUs.Observe(float64(time.Since(start).Microseconds()))
	mFramesSent.Inc()
	mBytesSent.Add(uint64(len(buf.B)))
	if bin {
		mSentBin.Inc()
	} else {
		mSentJSON.Inc()
	}
	return nil
}

// appendBinaryFrame appends the 24-byte header plus payload sections.
func appendBinaryFrame(b []byte, f frame) ([]byte, error) {
	flags := uint8(0)
	code := uint8(0)
	if f.binary {
		flags |= flagBinaryPayload
	}
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

// appendJSONFrame appends the 4-byte length prefix plus the JSON
// envelope. Binary payloads cannot travel in the JSON envelope.
func appendJSONFrame(b []byte, f frame) ([]byte, error) {
	if f.binary {
		return nil, fmt.Errorf("mwrpc: binary payload on JSON connection")
	}
	payload := f.payload
	if f.enc != nil {
		// JSON framing with an appender is a programming error upstream;
		// handle it anyway by materializing the payload.
		payload = f.enc(nil)
	}
	m := wire{
		Kind:  kindString(f.kind),
		ID:    f.id,
		Seq:   f.seq,
		Trace: f.trace,
		Error: f.errMsg,
	}
	switch f.kind {
	case kindReq:
		m.Method = f.method
		m.Params = payload
	case kindStreamBatch:
		m.Params = payload
	case kindPush:
		m.Stream = f.method
		m.Result = payload
	default:
		m.Result = payload
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("mwrpc: marshal: %w", err)
	}
	if len(body) > maxFrame {
		return nil, ErrFrameTooBig
	}
	b = AppendU32(b, uint32(len(body)))
	return append(b, body...), nil
}

// readFrame reads one frame in either codec, detected per frame by the
// first byte (binMagic vs the 0x00 high byte of a JSON length). The
// decode histogram starts once the first byte has arrived — it covers
// the framing reads and the parse, not idle time waiting for traffic.
func readFrame(br *bufio.Reader) (frame, error) {
	b0, err := br.ReadByte()
	if err != nil {
		return frame{}, err
	}
	start := time.Now()
	if b0 == binMagic {
		return readBinaryFrame(br, start)
	}
	return readJSONFrame(br, b0, start)
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
		f.binary = flags&flagBinaryPayload != 0
	}
	mDecodeUs.Observe(float64(time.Since(start).Microseconds()))
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(n) + binHeaderLen)
	mRecvBin.Inc()
	return f, nil
}

func readJSONFrame(br *bufio.Reader, b0 byte, start time.Time) (frame, error) {
	var rest [3]byte
	if _, err := io.ReadFull(br, rest[:]); err != nil {
		return frame{}, err
	}
	n := uint32(b0)<<24 | uint32(rest[0])<<16 | uint32(rest[1])<<8 | uint32(rest[2])
	if n > maxFrame {
		return frame{}, ErrFrameTooBig
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return frame{}, err
	}
	var m wire
	if err := json.Unmarshal(body, &m); err != nil {
		mDecodeBad.Inc()
		return frame{}, fmt.Errorf("mwrpc: unmarshal: %w", err)
	}
	f := frame{
		kind:   kindFromString(m.Kind),
		id:     m.ID,
		seq:    m.Seq,
		trace:  m.Trace,
		errMsg: m.Error,
	}
	switch f.kind {
	case kindReq:
		f.method = m.Method
		f.payload = m.Params
	case kindStreamBatch:
		f.payload = m.Params
	case kindPush:
		f.method = m.Stream
		f.payload = m.Result
	default:
		f.payload = m.Result
	}
	mDecodeUs.Observe(float64(time.Since(start).Microseconds()))
	mFramesRecv.Inc()
	mBytesRecv.Add(uint64(n + 4))
	mRecvJSON.Inc()
	return f, nil
}

// ---------------------------------------------------------------------------
// Negotiation

// helloArgs and helloReply implement the "mwrpc.hello" codec
// negotiation. The request and reply always travel as JSON, so any
// peer can read them; both sides switch codecs only after the reply.
type helloArgs struct {
	// Codecs lists the dialer's codecs in preference order.
	Codecs []string `json:"codecs"`
	// Stream advertises streaming-ingest support.
	Stream bool `json:"stream,omitempty"`
}

type helloReply struct {
	// Codec is the chosen codec ("binary" or "json").
	Codec string `json:"codec"`
	// Stream confirms streaming-ingest support.
	Stream bool `json:"stream,omitempty"`
}

// ---------------------------------------------------------------------------
// Server

// ServerConn is the server's view of one client connection. Handlers
// may retain it to push messages until OnClose fires.
type ServerConn struct {
	mu       sync.Mutex
	conn     net.Conn
	closed   bool
	writeBin bool // negotiated: frames we send use the binary codec

	onClose []func()
}

// Codec reports the negotiated write codec for this connection.
func (c *ServerConn) Codec() Codec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeBin {
		return CodecBinary
	}
	return CodecJSON
}

// send writes one frame in the connection's negotiated codec.
func (c *ServerConn) send(f frame) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	return writeFrame(c.conn, f, c.writeBin)
}

// Push sends an asynchronous JSON message on a named stream.
func (c *ServerConn) Push(stream string, payload interface{}) error {
	body, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("mwrpc: push marshal: %w", err)
	}
	err = c.send(frame{kind: kindPush, method: stream, payload: body})
	if err == nil {
		mPushesSent.Inc()
	}
	return err
}

// PushBinary sends an asynchronous binary-payload message on a named
// stream. It requires a binary-negotiated connection; callers check
// Codec() and fall back to Push otherwise.
func (c *ServerConn) PushBinary(stream string, enc Appender) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if !c.writeBin {
		c.mu.Unlock()
		return fmt.Errorf("mwrpc: binary push on JSON connection")
	}
	err := writeFrame(c.conn, frame{kind: kindPush, method: stream, binary: true, enc: enc}, true)
	c.mu.Unlock()
	if err == nil {
		mPushesSent.Inc()
	}
	return err
}

// StreamAck acknowledges a stream batch: seq is the highest contiguous
// sequence processed, and the payload (codec chosen by binary) carries
// the cumulative counts, per-reading rejects, and the credit grant.
func (c *ServerConn) StreamAck(id, seq uint64, payload []byte, binary bool) error {
	err := c.send(frame{kind: kindStreamAck, id: id, seq: seq, payload: payload, binary: binary})
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

// respond sends a JSON response frame.
func (c *ServerConn) respond(id uint64, result interface{}, herr error) error {
	f := frame{kind: kindResp, id: id}
	if herr != nil {
		f.errMsg = herr.Error()
	} else {
		body, err := json.Marshal(result)
		if err != nil {
			f.errMsg = "mwrpc: marshal result: " + err.Error()
		} else {
			f.payload = body
		}
	}
	return c.send(f)
}

// respondBinary sends a binary-payload response frame.
func (c *ServerConn) respondBinary(id uint64, enc Appender, herr error) error {
	f := frame{kind: kindResp, id: id}
	if herr != nil {
		f.errMsg = herr.Error()
	} else {
		f.binary = true
		f.enc = enc
	}
	return c.send(f)
}

// Handler serves one method. It runs on the connection's reader
// goroutine; slow work should be handed off.
type Handler func(conn *ServerConn, params json.RawMessage) (interface{}, error)

// TracedHandler is a Handler that also receives the trace ID carried
// on the request frame ("" for untraced requests), so the server side
// can continue a span chain begun in the client.
type TracedHandler func(conn *ServerConn, params json.RawMessage, trace string) (interface{}, error)

// BinaryHandler serves a method whose request payload is hand-rolled
// binary. It returns an Appender that encodes the binary response
// payload (nil for an empty response). The payload slice is only valid
// for the duration of the call.
type BinaryHandler func(conn *ServerConn, payload []byte, trace string) (Appender, error)

// StreamBatchFunc consumes one streaming-ingest batch frame. It runs
// on the connection's reader goroutine — processing inline is what
// paces the stream (the next frame is not read until this returns) —
// and is responsible for sending the StreamAck with a credit grant.
// trace is the obs trace ID carried on the frame ("" untraced).
type StreamBatchFunc func(conn *ServerConn, id, seq uint64, payload []byte, binary bool, trace string)

// Server dispatches framed requests to registered handlers.
type Server struct {
	mu          sync.Mutex
	handlers    map[string]Handler
	traced      map[string]TracedHandler
	binHandlers map[string]BinaryHandler
	onStream    StreamBatchFunc
	allowBinary bool
	ln          net.Listener
	conns       map[*ServerConn]struct{}
	wg          sync.WaitGroup
	closed      bool
}

// NewServer returns an empty server that accepts binary negotiation.
func NewServer() *Server {
	return &Server{
		handlers:    make(map[string]Handler),
		traced:      make(map[string]TracedHandler),
		binHandlers: make(map[string]BinaryHandler),
		conns:       make(map[*ServerConn]struct{}),
		allowBinary: true,
	}
}

// SetWire configures which codecs the server will negotiate: WireJSON
// declines binary (the compat matrix's "JSON daemon"), anything else
// accepts it. Connections already negotiated keep their codec.
func (s *Server) SetWire(p WirePref) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.allowBinary = p != WireJSON
}

// Register installs a handler for a method name.
func (s *Server) Register(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// RegisterTraced installs a trace-aware handler for a method name. A
// traced registration shadows a plain one for the same method.
func (s *Server) RegisterTraced(method string, h TracedHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traced[method] = h
}

// RegisterBinary installs the binary-payload handler for a method.
// JSON requests for the same method still go to the JSON handler, so
// both codecs serve the method after negotiation.
func (s *Server) RegisterBinary(method string, h BinaryHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.binHandlers[method] = h
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

// handleHello negotiates the connection codec. The reply travels in
// the pre-negotiation codec; the switch happens after it is written.
func (s *Server) handleHello(sc *ServerConn, params json.RawMessage, id uint64) {
	var a helloArgs
	if err := json.Unmarshal(params, &a); err != nil {
		_ = sc.respond(id, nil, fmt.Errorf("mwrpc: hello: %w", err))
		return
	}
	s.mu.Lock()
	allow := s.allowBinary
	s.mu.Unlock()
	chosen := CodecJSON
	if allow {
		for _, c := range a.Codecs {
			if c == "binary" {
				chosen = CodecBinary
				break
			}
		}
	}
	if err := sc.respond(id, helloReply{Codec: chosen.String(), Stream: true}, nil); err != nil {
		return
	}
	if chosen == CodecBinary {
		sc.mu.Lock()
		sc.writeBin = true
		sc.mu.Unlock()
		mNegoBin.Inc()
	} else {
		mNegoJSON.Inc()
	}
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
				fn(sc, f.id, f.seq, f.payload, f.binary, f.trace)
			}
			continue
		default:
			continue
		}
		if f.method == "mwrpc.hello" {
			s.handleHello(sc, f.payload, f.id)
			continue
		}
		if f.binary {
			s.mu.Lock()
			bh := s.binHandlers[f.method]
			s.mu.Unlock()
			if bh == nil {
				_ = sc.respond(f.id, nil, fmt.Errorf("%w: %s (binary)", ErrNoMethod, f.method))
				continue
			}
			mServedRequests.Inc()
			enc, herr := bh(sc, f.payload, f.trace)
			if err := sc.respondBinary(f.id, enc, herr); err != nil {
				return
			}
			continue
		}
		s.mu.Lock()
		th := s.traced[f.method]
		h := s.handlers[f.method]
		s.mu.Unlock()
		if th == nil && h == nil {
			_ = sc.respond(f.id, nil, fmt.Errorf("%w: %s", ErrNoMethod, f.method))
			continue
		}
		mServedRequests.Inc()
		var result interface{}
		var herr error
		if th != nil {
			result, herr = th(sc, f.payload, f.trace)
		} else {
			result, herr = h(sc, f.payload)
		}
		if err := sc.respond(f.id, result, herr); err != nil {
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

// PushFunc consumes pushed JSON messages on a stream.
type PushFunc func(payload json.RawMessage)

// BinaryPushFunc consumes pushed binary messages on a stream. The
// payload is only valid for the duration of the call.
type BinaryPushFunc func(payload []byte)

// StreamAckFunc consumes stream acknowledgements. The payload is only
// valid for the duration of the call.
type StreamAckFunc func(id, seq uint64, payload []byte, binary bool)

// Client is a connection to an mwrpc server.
type Client struct {
	mu        sync.Mutex
	conn      net.Conn
	br        *bufio.Reader
	nextID    uint64
	pending   map[uint64]chan frame
	onPush    map[string]PushFunc
	onPushBin map[string]BinaryPushFunc
	onAck     StreamAckFunc
	writeBin  bool
	streamOK  bool
	closed    bool
	done      chan struct{}

	// Timeout bounds each Call; zero means 10 seconds.
	Timeout time.Duration
}

// Options configures dialing and per-call behaviour. The zero value
// negotiates the binary codec with JSON fallback and uses the default
// timeouts.
type Options struct {
	// DialTimeout bounds the TCP connect; zero means 5 seconds.
	DialTimeout time.Duration
	// CallTimeout bounds each Call; zero means 10 seconds.
	CallTimeout time.Duration
	// Wire picks the codec: WireAuto (default) negotiates binary with
	// JSON fallback, WireJSON skips negotiation, WireBinary fails the
	// dial if the peer declines binary.
	Wire WirePref
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

// DialOptions connects to an mwrpc server with explicit timeouts and
// codec preference; WireAuto/WireBinary negotiate before returning.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, opts.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("mwrpc: dial %s: %w", addr, err)
	}
	c := NewClient(conn)
	c.Timeout = opts.CallTimeout
	if err := c.Negotiate(opts.Wire); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// NewClient runs the mwrpc client protocol over an existing connection
// (tests wrap conns in fault injectors before handing them in). The
// connection speaks JSON until Negotiate succeeds.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:      conn,
		br:        bufio.NewReaderSize(conn, 16<<10),
		pending:   make(map[uint64]chan frame),
		onPush:    make(map[string]PushFunc),
		onPushBin: make(map[string]BinaryPushFunc),
		done:      make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Negotiate runs the mwrpc.hello codec handshake. It must complete
// before concurrent calls begin (dial time). WireJSON is a no-op; a
// peer that predates negotiation leaves the connection on JSON, which
// WireBinary alone treats as an error.
func (c *Client) Negotiate(pref WirePref) error {
	if pref == WireJSON {
		return nil
	}
	var rep helloReply
	err := c.Call("mwrpc.hello", helloArgs{Codecs: []string{"binary", "json"}, Stream: true}, &rep)
	if err != nil {
		if errors.Is(err, ErrClosed) || errors.Is(err, ErrTimeout) {
			return err
		}
		var nerr net.Error
		if errors.As(err, &nerr) {
			return err
		}
		// A server-side error ("unknown method" from an old daemon):
		// stay on the JSON fallback.
		if pref == WireBinary {
			return fmt.Errorf("mwrpc: binary codec unavailable: %w", err)
		}
		return nil
	}
	c.mu.Lock()
	c.writeBin = rep.Codec == "binary"
	c.streamOK = rep.Stream
	c.mu.Unlock()
	if pref == WireBinary && rep.Codec != "binary" {
		return fmt.Errorf("mwrpc: peer declined binary codec (offered %q)", rep.Codec)
	}
	return nil
}

// Codec reports the negotiated write codec.
func (c *Client) Codec() Codec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.writeBin {
		return CodecBinary
	}
	return CodecJSON
}

// StreamSupported reports whether the peer advertised streaming-ingest
// support during negotiation (old daemons did not).
func (c *Client) StreamSupported() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.streamOK
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
			if f.binary {
				c.mu.Lock()
				fn := c.onPushBin[f.method]
				c.mu.Unlock()
				if fn != nil {
					fn(f.payload)
				}
				continue
			}
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
				fn(f.id, f.seq, f.payload, f.binary)
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

// OnPush installs the consumer for a JSON push stream. It replaces any
// previous consumer for that stream.
func (c *Client) OnPush(stream string, fn PushFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPush[stream] = fn
}

// OnPushBinary installs the consumer for binary pushes on a stream.
func (c *Client) OnPushBinary(stream string, fn BinaryPushFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onPushBin[stream] = fn
}

// OnStreamAck installs the consumer for stream acknowledgements. The
// handler runs on the read loop and must be fast (credit bookkeeping).
func (c *Client) OnStreamAck(fn StreamAckFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onAck = fn
}

// Call invokes a remote method and decodes the result into result
// (which may be nil to discard it).
func (c *Client) Call(method string, params, result interface{}) error {
	return c.CallTraced(method, params, result, "")
}

// CallTraced is Call with a trace ID stamped onto the request frame so
// the server can attribute its work to the originating reading. An
// empty trace behaves exactly like Call.
func (c *Client) CallTraced(method string, params, result interface{}, trace string) error {
	body, err := json.Marshal(params)
	if err != nil {
		return fmt.Errorf("mwrpc: marshal params: %w", err)
	}
	err = c.roundTrip(frame{kind: kindReq, method: method, payload: body, trace: trace},
		func(f frame) error {
			if result == nil {
				return nil
			}
			if err := json.Unmarshal(f.payload, result); err != nil {
				return fmt.Errorf("mwrpc: unmarshal result: %w", err)
			}
			return nil
		})
	mCallsTotal.Inc()
	if err != nil {
		mCallErrors.Inc()
	}
	return err
}

// CallBinary invokes a method whose payloads are hand-rolled binary:
// enc appends the request payload straight into the pooled frame
// buffer, dec parses the response payload (which is only valid during
// the call). It requires a binary-negotiated connection — callers
// check Codec() and use the JSON DTO path otherwise.
func (c *Client) CallBinary(method string, enc Appender, dec func(payload []byte) error, trace string) error {
	c.mu.Lock()
	bin := c.writeBin
	c.mu.Unlock()
	if !bin {
		return fmt.Errorf("mwrpc: binary call on JSON connection")
	}
	err := c.roundTrip(frame{kind: kindReq, method: method, binary: true, enc: enc, trace: trace},
		func(f frame) error {
			if dec == nil {
				return nil
			}
			return dec(f.payload)
		})
	mCallsTotal.Inc()
	if err != nil {
		mCallErrors.Inc()
	}
	return err
}

// roundTrip sends a request frame and decodes its response via dec.
func (c *Client) roundTrip(f frame, dec func(frame) error) error {
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
	err := writeFrame(c.conn, f, c.writeBin)
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
		return dec(m)
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTimeout, f.method)
	}
}

// StreamSend fires one sequenced stream-batch frame without waiting
// for a response; acknowledgements arrive via OnStreamAck. A binary
// payload requires a binary-negotiated connection.
func (c *Client) StreamSend(id, seq uint64, enc Appender, jsonPayload []byte) error {
	return c.StreamSendTraced(id, seq, enc, jsonPayload, "")
}

// StreamSendTraced is StreamSend with an obs trace ID on the frame, so
// the server-side batch consumer can continue the sender's trace.
func (c *Client) StreamSendTraced(id, seq uint64, enc Appender, jsonPayload []byte, trace string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	f := frame{kind: kindStreamBatch, id: id, seq: seq, trace: trace}
	if c.writeBin && enc != nil {
		f.binary = true
		f.enc = enc
	} else {
		f.payload = jsonPayload
	}
	if err := writeFrame(c.conn, f, c.writeBin); err != nil {
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
