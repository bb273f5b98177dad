// Wire-protocol benchmarks: codec encode/decode cost, end-to-end RPC
// ingest per codec, and pipelined streaming ingest. They are the only
// measurement of the JSON fallback; streaming binary ingest measured
// about 3x cheaper per reading than the JSON request/response batch-64
// path (EXPERIMENTS.md §PERF-6).
package remote

import (
	"encoding/json"
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

var wireBenchCodecs = []struct {
	name string
	wire mwrpc.WirePref
}{
	{"binary", mwrpc.WireBinary},
	{"json", mwrpc.WireJSON},
}

// BenchmarkWireEncode measures pure payload encoding per codec: the
// binary appender into a pooled buffer vs the DTO conversion plus
// json.Marshal the JSON envelope pays.
func BenchmarkWireEncode(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		rs := wireBenchReadings(size)
		b.Run(fmt.Sprintf("binary/batch-%d", size), func(b *testing.B) {
			buf := mwrpc.GetBuf()
			defer buf.Free()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.B = AppendReadings(buf.B[:0], rs)
			}
		})
		b.Run(fmt.Sprintf("json/batch-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				args := IngestBatchArgs{Readings: make([]ReadingDTO, 0, len(rs))}
				for _, r := range rs {
					args.Readings = append(args.Readings, toReadingDTO(r))
				}
				if _, err := json.Marshal(args); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireDecode measures the daemon-side payload parse,
// including the per-reading validation both codecs share.
func BenchmarkWireDecode(b *testing.B) {
	for _, size := range []int{1, 16, 64} {
		rs := wireBenchReadings(size)
		binPayload := AppendReadings(nil, rs)
		args := IngestBatchArgs{Readings: make([]ReadingDTO, 0, len(rs))}
		for _, r := range rs {
			args.Readings = append(args.Readings, toReadingDTO(r))
		}
		jsonPayload, err := json.Marshal(args)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("binary/batch-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dec, _, rejected, err := DecodeReadings(binPayload)
				if err != nil || len(rejected) != 0 || len(dec) != size {
					b.Fatalf("decode: %d readings, %d rejected, err %v", len(dec), len(rejected), err)
				}
			}
		})
		b.Run(fmt.Sprintf("json/batch-%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var a IngestBatchArgs
				if err := json.Unmarshal(jsonPayload, &a); err != nil {
					b.Fatal(err)
				}
				dec, _, rejected := decodeDTOBatch(a.Readings, "")
				if len(rejected) != 0 || len(dec) != size {
					b.Fatalf("decode: %d readings, %d rejected", len(dec), len(rejected))
				}
			}
		})
	}
}

// benchWireStack starts a daemon and dials it with the requested
// codec pinned (the daemon negotiates, so "binary" here means the
// strict form — the benchmark must not silently measure JSON).
func benchWireStack(b *testing.B, wire mwrpc.WirePref) *LocationClient {
	b.Helper()
	b.Setenv(mwrpc.WireEnv, "") // daemon side: negotiate, accept either
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
	c, err := DialLocationOptions(addr, DialOptions{Wire: wire})
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
// path per codec: one mw.ingestBatch round trip per op, the client
// blocked until the daemon stored the batch and replied.
func BenchmarkWireRPCIngest(b *testing.B) {
	for _, codec := range wireBenchCodecs {
		for _, size := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/size-%d", codec.name, size), func(b *testing.B) {
				c := benchWireStack(b, codec.wire)
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
}

// BenchmarkWireStreamIngest is the pipelined path: batches ride
// fire-and-forget stream frames inside the credit window, so the
// steady-state cost per op is the daemon's processing rate, not the
// round-trip latency. When credits run dry the loop waits for acks —
// that stall is real backpressure and stays inside the measurement.
func BenchmarkWireStreamIngest(b *testing.B) {
	for _, codec := range wireBenchCodecs {
		b.Run(codec.name+"/size-64", func(b *testing.B) {
			c := benchWireStack(b, codec.wire)
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
		})
	}
}
