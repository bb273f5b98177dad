// Fuzz target for the frame decoder, run by the CI fuzz job as a short
// smoke (go test -fuzz -fuzztime 30s). Its seed corpus lives in
// testdata/fuzz/FuzzReadFrame/ in Go's file form; regenerate it with
// MW_WRITE_FUZZ_CORPUS=1 go test -run TestWriteFuzzCorpus.
//
// The property under test is uniform: a decoder fed arbitrary bytes
// must return an error or a bounded frame — never panic, never
// allocate beyond maxFrame, never claim success on a payload it did
// not fully consume.
package mwrpc

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// mustEncode builds a seed frame, panicking on encoder misuse (seeds
// are static, so a failure is a bug in the seed table).
func mustEncode(f frame) []byte {
	b, err := appendBinaryFrame(nil, f)
	if err != nil {
		panic(err)
	}
	return b
}

// jsonEnvelope frames body the way the retired JSON codec did: a
// 4-byte big-endian length, then the JSON object. Such bytes must now
// be rejected as malformed.
func jsonEnvelope(body string) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// retiredFlagSet sets header bit 0, which once marked a binary
// payload and is now unassigned: readers must ignore it.
func retiredFlagSet(b []byte) []byte {
	b[2] |= 1 << 0
	return b
}

// readFrameSeeds seeds FuzzReadFrame: well-formed frames, plus classic
// malformations that must error.
func readFrameSeeds() [][]byte {
	return [][]byte{
		// Request, coded method.
		mustEncode(frame{kind: kindReq, id: 1, method: "mw.ingestBatch",
			payload: []byte{0x01, 0x02, 0x03}}),
		// Request, named method with a trace and a JSON payload.
		mustEncode(frame{kind: kindReq, id: 9, method: "custom.method",
			trace: "t-1", payload: []byte(`{"a":1}`)}),
		// Error response.
		mustEncode(frame{kind: kindResp, id: 2, errMsg: "boom"}),
		// Push.
		mustEncode(frame{kind: kindPush, method: "mw.notify",
			payload: []byte{0x00}}),
		// Stream batch and ack.
		mustEncode(frame{kind: kindStreamBatch, id: 7, seq: 3,
			payload: []byte{0x01}}),
		mustEncode(frame{kind: kindStreamAck, id: 7, seq: 3,
			payload: []byte{0x01, 0x00}}),
		// The retired JSON envelope: a request and a stream batch.
		jsonEnvelope(`{"kind":"req","id":1,"method":"echo","params":{"text":"hi"}}`),
		jsonEnvelope(`{"kind":"sbatch","id":4,"seq":1,"params":{"readings":[]}}`),
		// Not a frame at all.
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		// Truncated header.
		{binMagic, kindReq, 0},
		// Header claiming an oversized payload.
		{binMagic, kindReq, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF,
			0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0},
		// The same request with the retired flag bit 0 set: it decodes.
		retiredFlagSet(mustEncode(frame{kind: kindReq, id: 1, method: "mw.ingestBatch",
			payload: []byte{0x01, 0x02, 0x03}})),
	}
}

// FuzzReadFrame feeds raw connection bytes to the frame reader: it
// covers the magic check and the header/payload parser. Bytes that do
// not start with the magic must never decode, and the unassigned
// header bit 0 must never change what a frame decodes to.
func FuzzReadFrame(f *testing.F) {
	for _, s := range readFrameSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if data[0] != binMagic {
			t.Fatalf("frame starting 0x%02x decoded", data[0])
		}
		if len(fr.payload) > maxFrame {
			t.Fatalf("decoded payload of %d bytes exceeds maxFrame", len(fr.payload))
		}
		// Header bit 0 is unassigned: flipping it never changes a decode.
		flipped := append([]byte(nil), data...)
		flipped[2] ^= 1 << 0
		fr2, err := readFrame(bufio.NewReader(bytes.NewReader(flipped)))
		if err != nil || !reflect.DeepEqual(fr, fr2) {
			t.Fatalf("flipping header bit 0 changed the decode: %+v -> %+v (%v)", fr, fr2, err)
		}
	})
}

// TestRetiredFlagBitIgnored: a frame with the unassigned bit 0 set
// decodes exactly as the same frame without it, and bytes that do not
// start with the magic still error whatever their flags.
func TestRetiredFlagBitIgnored(t *testing.T) {
	read := func(b []byte) (frame, error) {
		return readFrame(bufio.NewReader(bytes.NewReader(b)))
	}
	f := frame{kind: kindReq, id: 3, method: "mw.locate", trace: "t", payload: []byte("alice")}
	plain, err := read(mustEncode(f))
	if err != nil {
		t.Fatal(err)
	}
	flagged, err := read(retiredFlagSet(mustEncode(f)))
	if err != nil {
		t.Fatalf("frame with bit 0 set: %v", err)
	}
	if !reflect.DeepEqual(plain, flagged) {
		t.Errorf("bit 0 changed the decode: %+v vs %+v", flagged, plain)
	}
	bad := retiredFlagSet(mustEncode(f))
	bad[0] = 0xB0
	if _, err := read(bad); err == nil {
		t.Error("a frame without the magic decoded")
	}
}

// TestWriteFuzzCorpus regenerates the committed seed corpora from the
// in-code seed tables (Go's "go test fuzz v1" file form). Gated so a
// normal test run never writes to the tree.
func TestWriteFuzzCorpus(t *testing.T) {
	if os.Getenv("MW_WRITE_FUZZ_CORPUS") == "" {
		t.Skip("set MW_WRITE_FUZZ_CORPUS=1 to regenerate seed corpora")
	}
	write := func(target string, seeds [][]byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, s := range seeds {
			body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s)) + ")\n"
			name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("FuzzReadFrame", readFrameSeeds())
}
