package remote

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"middlewhere/internal/adapter"
	"middlewhere/internal/faultnet"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

func registerStreamSensor(t *testing.T, c *LocationClient, id string) {
	t.Helper()
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Minute
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.RegisterSensor(id, spec)
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("RegisterSensor never succeeded: %v", err)
		}
	}
}

func streamReading(sensor, obj string, at time.Time) model.Reading {
	return model.Reading{
		SensorID: sensor, MObjectID: obj,
		Location: glob.MustParse("CS/Floor3/(370,15)"), Time: at,
	}
}

// TestStreamPerReadingRejection: a stream batch with one bad reading
// stores the rest and surfaces the rejection through OnReject with the
// original frame index — the same PR-4 contract mw.ingestBatch has.
func TestStreamPerReadingRejection(t *testing.T) {
	c, svc := startStack(t)
	registerStreamSensor(t, c, "st-s")
	st, err := c.OpenIngestStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var mu sync.Mutex
	var rejects []RejectedReadingDTO
	st.OnReject(func(rs []RejectedReadingDTO) {
		mu.Lock()
		rejects = append(rejects, rs...)
		mu.Unlock()
	})

	batch := []model.Reading{
		streamReading("st-s", "ok-1", t0),
		streamReading("ghost", "bad", t0), // unknown sensor: rejected
		streamReading("st-s", "ok-2", t0),
	}
	if err := st.Send(batch); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Accepted != 2 || stats.Rejected != 1 {
		t.Errorf("stats = %+v, want 2 accepted / 1 rejected", stats)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rejects) != 1 || rejects[0].Index != 1 {
		t.Fatalf("rejects = %+v, want one at index 1", rejects)
	}
	if got := svc.Health().Ingested; got != 2 {
		t.Errorf("service ingested %d, want 2", got)
	}
}

// TestStreamDuplicateSeqNotRestored drives the wire protocol directly:
// re-sending an already-acked sequence number must re-ack (so the
// sender's pending table drains) without storing the batch again.
func TestStreamDuplicateSeqNotRestored(t *testing.T) {
	c, svc := startStack(t)
	registerStreamSensor(t, c, "dup-s")

	rpc, err := mwrpc.Dial(c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rpc.Close()
	acks := make(chan streamAckDTO, 4)
	rpc.OnStreamAck(func(id, seq uint64, payload []byte) {
		a, err := decodeStreamAck(payload)
		if err != nil {
			t.Errorf("ack decode: %v", err)
			return
		}
		acks <- a
	})
	var open streamOpenReply
	if err := mwrpc.CallJSON(rpc, "mw.streamOpen", "", struct{}{}, &open); err != nil {
		t.Fatal(err)
	}
	batch := []model.Reading{
		streamReading("dup-s", "dup-a", t0),
		streamReading("dup-s", "dup-b", t0),
	}
	send := func() error {
		return rpc.StreamSend(open.StreamID, 1, "", func(b []byte) []byte {
			return AppendReadings(b, batch)
		})
	}
	for i := 0; i < 2; i++ { // same seq twice
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	var first, second streamAckDTO
	select {
	case first = <-acks:
	case <-time.After(5 * time.Second):
		t.Fatal("first ack never arrived")
	}
	select {
	case second = <-acks:
	case <-time.After(5 * time.Second):
		t.Fatal("duplicate ack never arrived")
	}
	if first.Accepted != 2 || first.BatchAccepted != 2 {
		t.Errorf("first ack = %+v, want 2/2", first)
	}
	if second.Accepted != 2 || second.BatchAccepted != 0 {
		t.Errorf("duplicate ack = %+v, want cumulative 2, batch 0", second)
	}
	if got := svc.Health().Ingested; got != 2 {
		t.Errorf("service ingested %d, want 2 (duplicate was re-stored)", got)
	}
}

// TestStreamReconnectResends: a mid-stream disconnect must not lose
// unacked batches — the stream re-opens on the new connection and
// resends them (at-least-once).
func TestStreamReconnectResends(t *testing.T) {
	// Delay holds acks in the proxy so the kill provably lands before
	// the in-flight batch's ack reaches the client.
	c, proxy, _ := startChaosStack(t, faultnet.Config{Seed: 11, Delay: 50 * time.Millisecond}, chaosOpts(11))
	registerStreamSensor(t, c, "rc-s")
	st, err := c.OpenIngestStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if err := st.Send([]model.Reading{streamReading("rc-s", "rc-0", t0)}); err != nil {
		t.Fatal(err)
	}
	proxy.KillConnections() // the ack (and possibly the batch) is lost

	if err := st.Flush(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Resends < 1 {
		t.Errorf("resends = %d, want >= 1", stats.Resends)
	}
	if stats.Unacked != 0 {
		t.Errorf("unacked = %d after flush", stats.Unacked)
	}
	// The reading landed despite the disconnect.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if loc, err := c.Locate("rc-0"); err == nil && loc.Symbolic != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rc-0 never became locatable after the resend")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStreamBackpressureCreditStall throttles the daemon link so acks
// lag, exhausting the client's credit window. The ResilientSink on top
// must absorb the stall — buffering and counting CreditStalls, breaker
// closed — and drain completely once credits replenish, storing every
// reading exactly once (no resends happened, so the count is exact).
func TestStreamBackpressureCreditStall(t *testing.T) {
	c, _, svc := startChaosStack(t, faultnet.Config{Seed: 13, Delay: 20 * time.Millisecond}, chaosOpts(13))
	registerStreamSensor(t, c, "bp-s")
	st, err := c.OpenIngestStream()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	sink := adapter.NewResilientSink(st, adapter.ResilientOptions{
		BufferSize:    4096,
		RetryInterval: 2 * time.Millisecond,
	})
	defer sink.Close()

	// Fire well past the 32-batch credit window faster than the
	// throttled acks can replenish it.
	const batches, perBatch = 48, 2
	for i := 0; i < batches; i++ {
		batch := make([]model.Reading, 0, perBatch)
		for j := 0; j < perBatch; j++ {
			batch = append(batch, streamReading("bp-s",
				fmt.Sprintf("bp-%d-%d", i, j), t0.Add(time.Duration(i)*time.Second)))
		}
		if err := sink.IngestBatch(batch); err != nil {
			t.Fatalf("resilient ingest %d: %v", i, err)
		}
	}

	if !sink.Flush(30 * time.Second) {
		t.Fatalf("resilient sink never drained: %+v", sink.Stats())
	}
	if err := st.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}

	rstats := sink.Stats()
	if rstats.CreditStalls < 1 {
		t.Errorf("credit stalls = %d, want >= 1 (window never exhausted?)", rstats.CreditStalls)
	}
	if rstats.BreakerOpens != 0 {
		t.Errorf("breaker opened %d times during backpressure, want 0", rstats.BreakerOpens)
	}
	if rstats.Dropped != 0 {
		t.Errorf("dropped = %d, want 0 (buffer was large enough)", rstats.Dropped)
	}
	sstats := st.Stats()
	if sstats.Resends != 0 {
		t.Errorf("resends = %d, want 0 (no disconnect happened)", sstats.Resends)
	}
	const total = batches * perBatch
	if sstats.Accepted != total {
		t.Errorf("stream accepted %d, want %d", sstats.Accepted, total)
	}
	// Exactly once: no reconnect, no resend, so the service-side count
	// matches the send count with no duplicates.
	if got := svc.Health().Ingested; got != total {
		t.Errorf("service ingested %d, want exactly %d", got, total)
	}
}
