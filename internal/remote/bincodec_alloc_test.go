//go:build !race

package remote

import (
	"testing"

	"middlewhere/internal/mwrpc"
)

// The codec's allocation contract. The file is excluded under -race
// because the race runtime itself allocates inside atomic
// instrumentation; `make test` runs it.

// TestBinaryEncodeSteadyStateAllocs: with a pooled buffer, encoding a
// batch into a reused frame buffer must not allocate.
func TestBinaryEncodeSteadyStateAllocs(t *testing.T) {
	rs := binTestReadings()
	buf := mwrpc.GetBuf()
	defer buf.Free()
	buf.B = AppendReadings(buf.B[:0], rs) // warm the buffer to capacity
	allocs := testing.AllocsPerRun(100, func() {
		buf.B = AppendReadings(buf.B[:0], rs)
	})
	if allocs != 0 {
		t.Errorf("steady-state encode allocates %.1f times per batch, want 0", allocs)
	}
}

// TestBinaryDecodeAllocsPerReading pins what decoding costs, since
// unlike encoding it is not zero-alloc: every decoded reading owns its
// strings. A coordinate fix under a two-segment prefix
// ("CS/Floor3/(x,y)") costs seven allocations: one string per ID
// (sensor, type, object) and per path segment, plus the path and
// coordinate slices. Each batch adds two: the reading and frame-index
// slices. (Empty and one-byte strings are free in the Go runtime.)
// Resolving the reading's location no longer allocates (the spatial
// database's route table), so these seven are most of what a streamed
// reading allocates; interning repeated IDs and path segments in the
// decoder (ROADMAP item 24(b)) is what would lower the bound.
func TestBinaryDecodeAllocsPerReading(t *testing.T) {
	const perReading, perBatch = 7, 2
	for _, n := range []int{1, 64} {
		payload := AppendReadings(nil, wireBenchReadings(n))
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, _, err := DecodeReadings(payload); err != nil {
				t.Fatal(err)
			}
		})
		if want := float64(perBatch + perReading*n); allocs > want {
			t.Errorf("decoding %d readings allocates %.0f times, want <= %.0f (%d per reading + %d per batch)",
				n, allocs, want, perReading, perBatch)
		}
	}
}
