package mwrpc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// TestServerSurvivesGarbageBytes throws raw garbage at the server: the
// offending connection is dropped and counted as malformed, and the
// server keeps serving others.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, addr := startServer(t)

	// A well-behaved client for later.
	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// dropped writes b on a fresh connection and requires the server to
	// close it and count one more malformed frame.
	dropped := func(what string, b []byte) {
		t.Helper()
		before := mDecodeBad.Value()
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer raw.Close()
		if _, err := raw.Write(b); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		if _, err := raw.Read(make([]byte, 1)); err == nil {
			t.Errorf("%s: server kept the connection open", what)
		}
		if got := mDecodeBad.Value(); got <= before {
			t.Errorf("%s: mwrpc_frames_malformed_total = %d, want > %d", what, got, before)
		}
	}

	// Raw garbage: not even a frame header.
	dropped("HTTP request", []byte("GET / HTTP/1.1\r\n\r\n"))

	// A header claiming an absurd size.
	var hdr [binHeaderLen]byte
	hdr[0], hdr[1] = binMagic, kindReq
	binary.BigEndian.PutUint32(hdr[4:], 1<<31)
	dropped("oversized frame", hdr[:])

	// A request in the retired length-prefixed JSON envelope.
	body := `{"kind":"req","id":1,"method":"echo","params":{"text":"hi"}}`
	dropped("length-prefixed JSON", append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))

	// The good client is unaffected.
	var reply echoReply
	if err := CallJSON(good, "echo", "", echoArgs{Text: "still alive"}, &reply); err != nil {
		t.Fatalf("good client broken after garbage: %v", err)
	}
	if reply.Text != "still alive" {
		t.Errorf("reply = %q", reply.Text)
	}
}

// TestServerIgnoresNonRequestFrames sends a well-formed frame with a
// kind the server does not handle.
func TestServerIgnoresNonRequestFrames(t *testing.T) {
	_, addr := startServer(t)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if err := writeFrame(raw, frame{kind: kindPush, method: "spoofed"}); err != nil {
		t.Fatal(err)
	}
	// Follow with a real request on the same connection: the server
	// must still answer it.
	if err := writeFrame(raw, frame{kind: kindReq, id: 1, method: "echo",
		payload: []byte(`{"text":"hi"}`)}); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := readFrame(bufio.NewReader(raw))
	if err != nil {
		t.Fatalf("no response after spoofed push: %v", err)
	}
	if resp.kind != kindResp || resp.id != 1 {
		t.Errorf("resp = %+v", resp)
	}
}

// TestDialSendsNoHandshake: DialOptions returns as soon as TCP
// connects, without the peer writing a byte, and the first frame on
// the wire is the first call — magic first, the called method's code
// in the header.
func TestDialSendsNoHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // the peer stays silent
	}()
	c, err := DialOptions(ln.Addr().String(), Options{CallTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial against a silent peer: %v", err)
	}
	defer c.Close()
	var peer net.Conn
	select {
	case peer = <-accepted:
	case <-time.After(2 * time.Second):
		t.Fatal("listener never accepted")
	}
	defer peer.Close()

	go CallJSON(c, "mw.health", "", struct{}{}, nil) // times out: the peer never replies
	peer.SetReadDeadline(time.Now().Add(2 * time.Second))
	var hdr [binHeaderLen]byte
	if _, err := io.ReadFull(peer, hdr[:]); err != nil {
		t.Fatalf("no frame from the first call: %v", err)
	}
	if hdr[0] != binMagic || hdr[1] != kindReq {
		t.Fatalf("first frame starts % x, want magic 0x%x and a request", hdr[:2], binMagic)
	}
	if want := methodCodes["mw.health"]; hdr[3] != want {
		t.Errorf("first frame's method code = %d, want mw.health's %d", hdr[3], want)
	}
}

// TestClientSurvivesServerGarbage: a server that writes garbage makes
// the client fail cleanly, not hang.
func TestClientSurvivesServerGarbage(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("!!!!this is not a frame!!!!"))
		conn.Close()
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 2 * time.Second
	err = CallJSON(c, "echo", "", echoArgs{Text: "x"}, nil)
	if err == nil {
		t.Error("call against garbage server should fail")
	}
}

// TestSlowLorisHeader: a connection that sends half a header and
// stalls must not wedge the server's other work (each connection has
// its own goroutine).
func TestSlowLorisHeader(t *testing.T) {
	_, addr := startServer(t)
	stall, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	if _, err := stall.Write([]byte{binMagic, kindReq}); err != nil {
		t.Fatal(err)
	}
	// Meanwhile a real client gets served.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := CallJSON(c, "echo", "", echoArgs{Text: "ok"}, nil); err != nil {
		t.Fatalf("server wedged by slow loris: %v", err)
	}
}

// TestIsTransportErr: connection-class failures retry on a fresh
// connection; an error the handler returned is final.
func TestIsTransportErr(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	appErr := CallJSON(c, "fail", "", struct{}{}, nil)
	if appErr == nil {
		t.Fatal("the fail method returned no error")
	}
	_, dialErr := Dial("127.0.0.1:1")
	if dialErr == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	for _, tc := range []struct {
		name string
		err  error
		want bool
	}{
		{"ErrClosed", fmt.Errorf("call: %w", ErrClosed), true},
		{"ErrTimeout", fmt.Errorf("%w: m", ErrTimeout), true},
		{"refused dial", dialErr, true},
		{"wrapped SyscallError", fmt.Errorf("read frame: %w", os.NewSyscallError("read", syscall.ECONNRESET)), true},
		{"server application error", appErr, false},
		{"credit stall", ErrNoCredit, false},
		{"nil", nil, false},
	} {
		if got := IsTransportErr(tc.err); got != tc.want {
			t.Errorf("%s: IsTransportErr(%v) = %v, want %v", tc.name, tc.err, got, tc.want)
		}
	}
}
