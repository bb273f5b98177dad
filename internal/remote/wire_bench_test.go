// Wire-protocol benchmarks: payload encode/decode cost, end-to-end RPC
// ingest, and pipelined streaming ingest.
package remote

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"middlewhere/internal/building"
	"middlewhere/internal/core"
	"middlewhere/internal/glob"
	"middlewhere/internal/model"
	"middlewhere/internal/mwrpc"
)

// wireBenchReadings builds a batch of n coordinate readings from one
// registered sensor — the shape adapters emit on the hot path.
func wireBenchReadings(n int) []model.Reading {
	rs := make([]model.Reading, n)
	for i := range rs {
		rs[i] = model.Reading{
			SensorID:        "s0",
			SensorType:      "ubisense",
			MObjectID:       fmt.Sprintf("m%d", i%8),
			Location:        glob.MustParse(fmt.Sprintf("CS/Floor3/(%d,%d)", 10+i%400, 50)),
			DetectionRadius: 0.15,
			Time:            t0,
		}
	}
	return rs
}

// BenchmarkWireEncode measures pure payload encoding: the binary
// appender into a pooled buffer.
func BenchmarkWireEncode(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		rs := wireBenchReadings(size)
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			buf := mwrpc.GetBuf()
			defer buf.Free()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.B = AppendReadings(buf.B[:0], rs)
			}
		})
	}
}

// BenchmarkWireDecode measures the daemon-side payload parse,
// including the per-reading validation.
func BenchmarkWireDecode(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		payload := AppendReadings(nil, wireBenchReadings(size))
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dec, _, rejected, err := decodeIngest(payload, "")
				if err != nil || len(rejected) != 0 || len(dec) != size {
					b.Fatalf("decode: %d readings, %d rejected, err %v", len(dec), len(rejected), err)
				}
			}
		})
	}
}

// benchWireStack starts a daemon and dials it.
func benchWireStack(b *testing.B) *LocationClient {
	b.Helper()
	svc, err := core.New(building.PaperFloor(), core.WithClock(func() time.Time { return t0 }))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(svc.Close)
	srv := NewServer(svc)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	c, err := DialLocation(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	spec := model.UbisenseSpec(0.95)
	spec.TTL = time.Hour
	if err := c.RegisterSensor("s0", spec); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkWireRPCIngest is the end-to-end request/response ingest
// path: one mw.ingestBatch round trip per op, the client blocked until
// the daemon stored the batch and replied.
func BenchmarkWireRPCIngest(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("size-%d", size), func(b *testing.B) {
			c := benchWireStack(b)
			batch := wireBenchReadings(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.IngestBatch(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(size), "readings/op")
		})
	}
}

// BenchmarkWireStreamIngest is the pipelined path: batches ride
// fire-and-forget stream frames inside the credit window, so the
// steady-state cost per op is the daemon's processing rate, not the
// round-trip latency. When credits run dry the loop waits for acks —
// that stall is real backpressure and stays inside the measurement.
func BenchmarkWireStreamIngest(b *testing.B) {
	c := benchWireStack(b)
	st, err := c.OpenIngestStream()
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	batch := wireBenchReadings(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for {
			err := st.Send(batch)
			if err == nil {
				break
			}
			if errors.Is(err, mwrpc.ErrNoCredit) {
				// Sleep, don't spin: a Gosched loop contends the
				// stream lock against the very reader goroutine
				// whose acks replenish the window.
				time.Sleep(20 * time.Microsecond)
				continue
			}
			b.Fatal(err)
		}
	}
	if err := st.Flush(time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(64, "readings/op")
}
