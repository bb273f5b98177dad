// Streaming ingest with credit-based backpressure.
//
// A client opens a stream with one mw.streamOpen call; the reply
// carries the stream ID and the initial credit window (batches and
// bytes). Batches then ride sequenced fire-and-forget stream frames —
// no per-batch round trip — and the daemon acknowledges each one with
// the cumulative accepted count, that batch's per-reading rejection
// list (PR-4 semantics), and a credit grant replenishing the window.
// The daemon processes batches inline on the connection's reader
// goroutine, so a slow daemon acks slowly, credits run out, and the
// sender sheds or buffers client-side instead of ballooning queues.
//
// Delivery is at-least-once across reconnects: unacked batches are
// resent on a fresh stream after the session resumes. A batch whose
// ack was lost may be stored twice, which the spatial database
// tolerates (identical rows fuse); acked batches are never resent.
// Streaming works over both codecs — binary connections carry the
// hand-rolled payloads, JSON connections the DTO envelope — so every
// MW_WIRE pairing of the compat matrix exercises it.
package remote

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

// Initial credit window granted on mw.streamOpen. Sized to keep the
// in-flight volume well under typical TCP buffers (the transport is
// the backstop, credits are the governor).
const (
	streamInitBatches = 32
	streamInitBytes   = 256 << 10
)

// streamOpenReply answers mw.streamOpen.
type streamOpenReply struct {
	StreamID      uint64 `json:"streamId"`
	CreditBatches int    `json:"creditBatches"`
	CreditBytes   int    `json:"creditBytes"`
}

// srvStream is the daemon's per-stream state.
type srvStream struct {
	lastSeq  uint64
	accepted uint64
}

// handleStreamOpen allocates a stream on the calling connection and
// grants the initial credit window.
func (s *Server) handleStreamOpen(conn *mwrpc.ServerConn, _ json.RawMessage) (interface{}, error) {
	s.mu.Lock()
	s.nextStream++
	id := s.nextStream
	m := s.streams[conn]
	register := m == nil
	if register {
		m = make(map[uint64]*srvStream)
		s.streams[conn] = m
	}
	m[id] = &srvStream{}
	s.mu.Unlock()
	if register {
		conn.OnClose(func() {
			s.mu.Lock()
			delete(s.streams, conn)
			s.mu.Unlock()
		})
	}
	return streamOpenReply{
		StreamID:      id,
		CreditBatches: streamInitBatches,
		CreditBytes:   streamInitBytes,
	}, nil
}

// handleStreamBatch consumes one stream frame. It runs on the
// connection's reader goroutine — the next frame is not read until
// this returns, which is what makes a slow daemon starve the sender's
// credits instead of buffering unboundedly.
func (s *Server) handleStreamBatch(conn *mwrpc.ServerConn, id, seq uint64, payload []byte, binary bool, trace string) {
	s.mu.Lock()
	st := s.streams[conn][id]
	s.mu.Unlock()
	if st == nil {
		return // unknown stream (e.g. opened on a dead epoch): drop
	}
	ack := streamAckDTO{CreditBatches: 1, CreditBytes: len(payload)}
	if seq <= st.lastSeq {
		// Duplicate of an already-processed batch: never re-store, but
		// re-ack so the sender's credits and pending table drain. The
		// early return also means a replayed frame can never start a
		// second trace — the batch is not even decoded.
		ack.Accepted = st.accepted
		s.sendAck(conn, id, seq, ack)
		return
	}
	st.lastSeq = seq
	rep, err := s.ingestPayload(payload, binary, trace)
	if err == nil {
		st.accepted += uint64(rep.Accepted)
		ack.Accepted = st.accepted
		ack.BatchAccepted = rep.Accepted
		ack.Rejected = rep.Rejected
		s.sendAck(conn, id, seq, ack)
		return
	}
	// The payload is broken or the service refused the whole batch
	// (e.g. it is shutting down): the batch is dropped wholesale —
	// tell the sender rather than let it retry forever.
	ack.Error = err.Error()
	ack.Accepted = st.accepted
	s.sendAck(conn, id, seq, ack)
}

// sendAck writes a stream acknowledgement in the connection's
// negotiated codec. Send failures are ignored — a dead connection is
// cleaned up by OnClose and the client resends on the next stream.
func (s *Server) sendAck(conn *mwrpc.ServerConn, id, seq uint64, ack streamAckDTO) {
	if conn.Codec() == mwrpc.CodecBinary {
		_ = conn.StreamAck(id, seq, appendStreamAck(nil, ack), true)
		return
	}
	body, err := json.Marshal(ack)
	if err != nil {
		return
	}
	_ = conn.StreamAck(id, seq, body, false)
}

// ---------------------------------------------------------------------------
// Client

// ErrStreamUnsupported reports a daemon that predates streaming
// ingest; callers fall back to per-batch IngestBatch calls.
var ErrStreamUnsupported = fmt.Errorf("remote: daemon does not support streaming ingest")

// pendingBatch is one sent-but-unacked batch, kept for resend.
type pendingBatch struct {
	rs   []model.Reading
	size int // byte credits charged
}

// StreamStats snapshots a stream's progress.
type StreamStats struct {
	// Accepted is the cumulative count the daemon reports stored;
	// Rejected counts per-reading rejections surfaced in acks.
	Accepted, Rejected uint64
	// Unacked is the in-flight batch count (stream depth).
	Unacked int
	// CreditBatches/CreditBytes is the remaining send window.
	CreditBatches int
	CreditBytes   int64
	// Resends counts batches retransmitted after a reconnect.
	Resends uint64
}

// IngestStream pipelines reading batches to the daemon without
// per-batch round trips. It implements adapter.BatchSink, so a
// Batcher or ResilientSink can sit directly on top; Send returns
// mwrpc.ErrNoCredit when the daemon's credit window is exhausted,
// which those layers treat as backpressure (buffer or shed), not
// failure.
type IngestStream struct {
	c *LocationClient

	mu       sync.Mutex
	ackWait  chan struct{} // closed and replaced on every ack
	id       uint64
	epoch    int
	open     bool
	closed   bool
	nextSeq  uint64
	credBat  int
	credByt  int64
	pending  map[uint64]pendingBatch
	accepted uint64
	rejected uint64
	resends  uint64
	onReject func([]RejectedReadingDTO)
}

// OpenIngestStream opens a streaming-ingest session on the client's
// current connection. A daemon without stream support returns
// ErrStreamUnsupported; the caller falls back to IngestBatch.
func (c *LocationClient) OpenIngestStream() (*IngestStream, error) {
	s := &IngestStream{
		c:       c,
		ackWait: make(chan struct{}),
		pending: make(map[uint64]pendingBatch),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rpc, epoch, err := c.current()
	if err != nil {
		return nil, err
	}
	if err := s.reopenOn(rpc, epoch); err != nil {
		if !isTransportErr(err) {
			return nil, ErrStreamUnsupported
		}
		return nil, err
	}
	return s, nil
}

// OnReject installs a consumer for per-reading rejections reported in
// acks (called outside the stream lock, on the connection's reader
// goroutine). Rejected readings were not stored and are not resent.
func (s *IngestStream) OnReject(fn func([]RejectedReadingDTO)) {
	s.mu.Lock()
	s.onReject = fn
	s.mu.Unlock()
}

// reopenOn opens (or re-opens after a reconnect) the stream on rpc and
// resends every unacked batch in sequence order. Caller holds s.mu.
func (s *IngestStream) reopenOn(rpc *mwrpc.Client, epoch int) error {
	var rep streamOpenReply
	if err := rpc.Call("mw.streamOpen", struct{}{}, &rep); err != nil {
		return err
	}
	oldID := s.id
	s.id, s.epoch = rep.StreamID, epoch
	s.credBat, s.credByt = rep.CreditBatches, int64(rep.CreditBytes)
	s.open = true
	c := s.c
	c.mu.Lock()
	delete(c.ackSubs, oldID)
	c.ackSubs[s.id] = s
	c.mu.Unlock()
	if len(s.pending) > 0 {
		seqs := make([]uint64, 0, len(s.pending))
		for seq := range s.pending {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			pb := s.pending[seq]
			size, err := s.writeBatch(rpc, seq, pb.rs)
			if err != nil {
				s.open = false
				return err
			}
			pb.size = size
			s.pending[seq] = pb
			s.credBat--
			s.credByt -= int64(size)
			s.resends++
			s.c.mStreamResends.Inc()
		}
	}
	s.publishGauges()
	return nil
}

// writeBatch encodes rs in the connection's codec and fires the stream
// frame; it returns the payload size actually charged.
func (s *IngestStream) writeBatch(rpc *mwrpc.Client, seq uint64, rs []model.Reading) (int, error) {
	if rpc.Codec() == mwrpc.CodecBinary {
		size := ReadingsBinSize(rs)
		err := rpc.StreamSend(s.id, seq, func(b []byte) []byte {
			return AppendReadings(b, rs)
		}, nil)
		return size, err
	}
	body, err := json.Marshal(ingestArgs(rs))
	if err != nil {
		return 0, err
	}
	return len(body), rpc.StreamSend(s.id, seq, nil, body)
}

// Send pipelines one batch. It returns as soon as the frame is
// written — the ack (and any per-reading rejections) arrives
// asynchronously. When the credit window is exhausted it returns
// mwrpc.ErrNoCredit without sending; callers retry after acks drain
// (adapter.ResilientSink buffers and paces this automatically). A
// batch larger than the whole window is allowed through alone
// (overdraft) so progress is always possible.
func (s *IngestStream) Send(rs []model.Reading) error {
	if len(rs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return mwrpc.ErrClosed
	}
	var lastErr error
	for attempt := 0; attempt < s.c.opts.DialAttempts; attempt++ {
		rpc, epoch, err := s.c.current()
		if err != nil {
			return err
		}
		if !s.open || epoch != s.epoch {
			if err := s.reopenOn(rpc, epoch); err != nil {
				if !isTransportErr(err) {
					return err
				}
				lastErr = err
				if werr := s.await(epoch); werr != nil {
					return werr
				}
				continue
			}
		}
		if s.credBat < 1 && len(s.pending) > 0 {
			return mwrpc.ErrNoCredit
		}
		// The binary size gates either codec: credits only bound volume,
		// and a JSON batch is charged its real (larger) size once sent.
		if s.credByt < int64(ReadingsBinSize(rs)) && len(s.pending) > 0 {
			return mwrpc.ErrNoCredit
		}
		s.nextSeq++
		seq := s.nextSeq
		size, err := s.writeBatch(rpc, seq, rs)
		if err != nil {
			s.open = false
			if !isTransportErr(err) {
				return err
			}
			lastErr = err
			if werr := s.await(epoch); werr != nil {
				return werr
			}
			continue
		}
		s.pending[seq] = pendingBatch{rs: rs, size: size}
		s.credBat--
		s.credByt -= int64(size)
		s.c.mStreamBatches.Inc()
		s.publishGauges()
		return nil
	}
	return lastErr
}

// IngestBatch makes IngestStream an adapter.BatchSink.
func (s *IngestStream) IngestBatch(rs []model.Reading) error { return s.Send(rs) }

// Ingest makes IngestStream a full adapter.Sink, so a ResilientSink
// or Batcher can wrap it directly.
func (s *IngestStream) Ingest(r model.Reading) error { return s.Send([]model.Reading{r}) }

// await drops the stream lock while the client reconnects.
func (s *IngestStream) await(epoch int) error {
	s.mu.Unlock()
	err := s.c.awaitReconnect(epoch)
	s.mu.Lock()
	return err
}

// handleAck folds one acknowledgement into the stream state: pending
// drains, credits replenish, rejection lists surface.
func (s *IngestStream) handleAck(id, seq uint64, ack streamAckDTO) {
	s.mu.Lock()
	if id != s.id || s.closed {
		s.mu.Unlock()
		return // ack for a stream of a dead epoch
	}
	delete(s.pending, seq)
	s.credBat += ack.CreditBatches
	s.credByt += int64(ack.CreditBytes)
	s.accepted = ack.Accepted
	s.rejected += uint64(len(ack.Rejected))
	if ack.Error != "" {
		s.c.mStreamDropped.Inc()
	}
	onReject := s.onReject
	close(s.ackWait)
	s.ackWait = make(chan struct{})
	s.publishGauges()
	s.mu.Unlock()
	if onReject != nil && len(ack.Rejected) > 0 {
		onReject(ack.Rejected)
	}
}

// Flush blocks until every sent batch is acked (or timeout elapses),
// driving stream re-opens through reconnects as needed.
func (s *IngestStream) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return mwrpc.ErrClosed
		}
		n := len(s.pending)
		ch := s.ackWait
		if n == 0 {
			s.mu.Unlock()
			return nil
		}
		rpc, epoch, err := s.c.current()
		if err != nil {
			s.mu.Unlock()
			return err
		}
		if !s.open || epoch != s.epoch {
			err := s.reopenOn(rpc, epoch)
			s.mu.Unlock()
			if err != nil {
				if !isTransportErr(err) {
					return err
				}
				if werr := s.c.awaitReconnect(epoch); werr != nil {
					return werr
				}
			}
			continue
		}
		s.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return fmt.Errorf("remote: stream flush timed out with %d batches unacked", n)
		}
		if wait > 100*time.Millisecond {
			wait = 100 * time.Millisecond // re-check liveness periodically
		}
		select {
		case <-ch:
		case <-time.After(wait):
		}
	}
}

// Close flushes (best effort, bounded) and detaches the stream. The
// underlying connection stays up for the owning client.
func (s *IngestStream) Close() error {
	err := s.Flush(5 * time.Second)
	s.mu.Lock()
	s.closed = true
	id := s.id
	s.mu.Unlock()
	s.c.mu.Lock()
	delete(s.c.ackSubs, id)
	s.c.mu.Unlock()
	return err
}

// Stats snapshots the stream.
func (s *IngestStream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamStats{
		Accepted:      s.accepted,
		Rejected:      s.rejected,
		Unacked:       len(s.pending),
		CreditBatches: s.credBat,
		CreditBytes:   s.credByt,
		Resends:       s.resends,
	}
}

// publishGauges exports the credit window and stream depth. Caller
// holds s.mu.
func (s *IngestStream) publishGauges() {
	s.c.gStreamCreditBatches.Set(float64(s.credBat))
	s.c.gStreamCreditBytes.Set(float64(s.credByt))
	s.c.gStreamUnacked.Set(float64(len(s.pending)))
}

// routeAck decodes an acknowledgement frame and hands it to the
// owning stream (runs on the connection's reader goroutine).
func (c *LocationClient) routeAck(id, seq uint64, payload []byte, binary bool) {
	var ack streamAckDTO
	if binary {
		a, err := decodeStreamAck(payload)
		if err != nil {
			c.mMalformed.Inc()
			return
		}
		ack = a
	} else if err := json.Unmarshal(payload, &ack); err != nil {
		c.mMalformed.Inc()
		return
	}
	c.mu.Lock()
	s := c.ackSubs[id]
	c.mu.Unlock()
	if s != nil {
		s.handleAck(id, seq, ack)
	}
}
