package mwrpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoArgs struct {
	Text string `json:"text"`
}

type echoReply struct {
	Text string `json:"text"`
}

// startServer returns a running server and its address.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	srv.Register("echo", JSONHandler(func(_ *ServerConn, a echoArgs, _ string) (any, error) {
		return echoReply{Text: a.Text}, nil
	}))
	srv.Register("fail", JSONHandler(func(_ *ServerConn, _ struct{}, _ string) (any, error) {
		return nil, errors.New("deliberate failure")
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, addr
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply echoReply
	if err := CallJSON(c, "echo", "", echoArgs{Text: "hello"}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Text != "hello" {
		t.Errorf("reply = %q", reply.Text)
	}
	// nil result discards the payload.
	if err := CallJSON(c, "echo", "", echoArgs{Text: "x"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCallErrors(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = CallJSON(c, "fail", "", struct{}{}, nil)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("err = %v", err)
	}
	err = CallJSON(c, "no-such-method", "", struct{}{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Errorf("err = %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			var reply echoReply
			if err := CallJSON(c, "echo", "", echoArgs{Text: want}, &reply); err != nil {
				errs <- err
				return
			}
			if reply.Text != want {
				errs <- fmt.Errorf("got %q want %q", reply.Text, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestServerPush(t *testing.T) {
	srv := NewServer()
	srv.Register("subscribe", JSONHandler(func(conn *ServerConn, _ struct{}, _ string) (any, error) {
		// Push three messages asynchronously after replying.
		go func() {
			for i := 0; i < 3; i++ {
				n := uint64(i)
				if err := conn.Push("events", func(b []byte) []byte { return AppendUvarint(b, n) }); err != nil {
					return
				}
			}
		}()
		return "ok", nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := make(chan int, 8)
	c.OnPush("events", func(payload []byte) {
		if n, err := NewBinReader(payload).Uvarint(); err == nil {
			got <- int(n)
		}
	})
	var s string
	if err := CallJSON(c, "subscribe", "", struct{}{}, &s); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		select {
		case n := <-got:
			seen[n] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("timeout after %d pushes", i)
		}
	}
	if len(seen) != 3 {
		t.Errorf("pushes = %v", seen)
	}
}

func TestOnCloseCallback(t *testing.T) {
	closed := make(chan struct{})
	srv := NewServer()
	srv.Register("watch", JSONHandler(func(conn *ServerConn, _ struct{}, _ string) (any, error) {
		conn.OnClose(func() { close(closed) })
		return "ok", nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := CallJSON(c, "watch", "", struct{}{}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("OnClose never fired")
	}
}

func TestCallTimeout(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Register("hang", JSONHandler(func(_ *ServerConn, _ struct{}, _ string) (any, error) {
		<-block
		return "late", nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		srv.Close()
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	if err := CallJSON(c, "hang", "", struct{}{}, nil); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestClientCloseFailsPendingAndFutureCalls(t *testing.T) {
	srv := NewServer()
	block := make(chan struct{})
	srv.Register("hang", JSONHandler(func(_ *ServerConn, _ struct{}, _ string) (any, error) {
		<-block
		return nil, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(block)
		srv.Close()
	}()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- CallJSON(c, "hang", "", struct{}{}, nil)
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("pending call err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending call never failed")
	}
	if err := CallJSON(c, "echo", "", struct{}{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("future call err = %v", err)
	}
}

func TestServerCloseDropsClients(t *testing.T) {
	srv, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := CallJSON(c, "echo", "", echoArgs{Text: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// After server close the call eventually fails.
	deadline := time.Now().Add(2 * time.Second)
	for {
		err := CallJSON(c, "echo", "", echoArgs{Text: "b"}, nil)
		if err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls still succeed after server close")
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestFrameTooBig(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := strings.Repeat("x", maxFrame)
	if err := CallJSON(c, "echo", "", echoArgs{Text: big}, nil); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestDialOptionsAndDone(t *testing.T) {
	srv, addr := startServer(t)
	c, err := DialOptions(addr, Options{DialTimeout: time.Second, CallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Timeout != 2*time.Second {
		t.Errorf("CallTimeout not applied: %v", c.Timeout)
	}
	select {
	case <-c.Done():
		t.Fatal("Done closed while connection healthy")
	default:
	}
	var reply echoReply
	if err := CallJSON(c, "echo", "", echoArgs{Text: "opt"}, &reply); err != nil {
		t.Fatal(err)
	}
	// Killing the server closes Done without the client calling Close.
	srv.Close()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after server shutdown")
	}
}

// TestRegisterTwicePanics: each method name has exactly one handler,
// so a second registration of a name is a programming error, not a
// silent overwrite.
func TestRegisterTwicePanics(t *testing.T) {
	srv := NewServer()
	h := func(*ServerConn, []byte, string) (Appender, error) { return nil, nil }
	srv.Register("m", h)
	defer func() {
		if recover() == nil {
			t.Fatal("registering a method twice did not panic")
		}
	}()
	srv.Register("m", h)
}

// TestCallCarriesBytesAndTrace: the transport hands the handler the
// request bytes and the frame's trace as sent, and returns the bytes
// the handler appends as the reply.
func TestCallCarriesBytesAndTrace(t *testing.T) {
	srv := NewServer()
	srv.Register("tag", func(_ *ServerConn, payload []byte, trace string) (Appender, error) {
		out := append([]byte(trace+":"), payload...)
		return func(b []byte) []byte { return append(b, out...) }, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got string
	err = c.Call("tag", "t-7", func(b []byte) []byte { return append(b, 0, '{', 0xFF) },
		func(payload []byte) error { got = string(payload); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if want := "t-7:\x00{\xff"; got != want {
		t.Errorf("reply = %q, want %q", got, want)
	}
}
