package faultnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back verbatim until
// the peer closes. Returns its address.
func echoServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(conn, conn)
				conn.Close()
			}()
		}
	}()
	return ln.Addr().String()
}

// frame encodes one message behind an mwrpc frame header.
func frame(body []byte) []byte {
	out := make([]byte, binHeaderLen+len(body))
	out[0] = binMagic
	binary.BigEndian.PutUint32(out[4:], uint32(len(body)))
	copy(out[binHeaderLen:], body)
	return out
}

func TestTransparentRelay(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	msg := []byte("hello through the proxy")
	if _, err := conn.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("echo = %q", got)
	}
	if s := p.Stats(); s.Accepted != 1 {
		t.Errorf("stats = %+v", s)
	}
}

// TestFrameDropsAreDeterministic runs the same traffic through two
// proxies with the same seed and drop rate: the connection survives
// the same number of frames in both runs.
func TestFrameDropsAreDeterministic(t *testing.T) {
	survived := func(seed int64) int {
		p, err := NewProxy(echoServer(t), Config{Seed: seed, FrameDropRate: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		conn, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		n := 0
		for i := 0; i < 50; i++ {
			if _, err := conn.Write(frame([]byte("ping"))); err != nil {
				break
			}
			got := make([]byte, 8)
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := io.ReadFull(conn, got); err != nil {
				break
			}
			n++
		}
		return n
	}
	a, b := survived(7), survived(7)
	if a != b {
		t.Errorf("same seed diverged: %d vs %d frames", a, b)
	}
	if a >= 50 {
		t.Errorf("drop rate 0.3 never dropped in %d frames", a)
	}
}

// TestFrameDropSeversConnection: after a drop the client observes a
// dead connection, not a silent gap in the stream.
func TestFrameDropSeversConnection(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{Seed: 1, FrameDropRate: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(frame([]byte("doomed")))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection survived a dropped frame")
	}
	if s := p.Stats(); s.DroppedFrames != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestDelayInjection(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{Delay: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.Write([]byte("x"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Errorf("round trip %v, expected >= one-way delay", d)
	}
}

func TestTruncateAfterCutsMidStream(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{TruncateAfter: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(bytes.Repeat([]byte("a"), 64))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	got, _ := io.ReadAll(conn)
	if len(got) > 10 {
		t.Errorf("read %d bytes past the truncation budget", len(got))
	}
}

func TestPartitionAndHeal(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A healthy connection first.
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Partition()
	// The existing connection was severed.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("partition left the old connection alive")
	}
	conn.Close()

	// A new dial connects (TCP accept) but is blackholed: nothing comes
	// back.
	dark, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	dark.Write([]byte("anyone?"))
	dark.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := dark.Read(make([]byte, 1)); err == nil {
		t.Error("blackholed connection produced data")
	}
	dark.Close()

	p.Heal()
	good, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.Write([]byte("back"))
	good.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(good, buf); err != nil {
		t.Fatalf("healed proxy not forwarding: %v", err)
	}
}

func TestKillConnections(t *testing.T) {
	p, err := NewProxy(echoServer(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove liveness, then kill.
	conn.Write([]byte("x"))
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	p.KillConnections()
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("connection survived KillConnections")
	}
	// Reconnects work immediately.
	again, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	again.Write([]byte("y"))
	again.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(again, make([]byte, 1)); err != nil {
		t.Fatalf("reconnect after kill: %v", err)
	}
}

func TestConnWrapperInjectsErrors(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	wrapped := Wrap(client, ConnConfig{Seed: 3, WriteErrRate: 1.0})
	if _, err := wrapped.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("err = %v", err)
	}
	// The underlying conn was closed, as a real transport fault leaves it.
	if _, err := client.Write([]byte("y")); err == nil {
		t.Error("underlying conn still writable after injected fault")
	}
}

func TestConnWrapperFailAfterBytes(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	go io.Copy(io.Discard, server)
	wrapped := Wrap(client, ConnConfig{FailAfterBytes: 8})
	if _, err := wrapped.Write([]byte("1234")); err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.Write([]byte("5678")); err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.Write([]byte("9")); !errors.Is(err, ErrInjected) {
		t.Errorf("err after budget = %v", err)
	}
}
