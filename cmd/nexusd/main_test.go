package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestHalfWrittenHeaderIsClosed: a client that starts a request and never
// finishes its headers must be disconnected by the server, not hold a
// connection and its goroutine until the client goes away.
func TestHalfWrittenHeaderIsClosed(t *testing.T) {
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("timeouts unset: header %v, idle %v", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("await long-polls: write %v / read %v timeouts must stay off", srv.WriteTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the production value, shortened
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-served; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve = %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: nexusd\r\n"); err != nil {
		t.Fatal(err)
	}
	// No terminating blank line follows. The server may answer 408 first;
	// what matters is that the stream ends by the server's hand well before
	// this read deadline, which only a server that never hangs up reaches.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the half-open request alive: %v", err)
	}
}

// TestStrayArgumentRejected: a positional argument (say, an address given
// without -addr) exits 2 instead of being ignored while the daemon listens
// on the default address.
func TestStrayArgumentRejected(t *testing.T) {
	code := make(chan int, 1)
	go func() { code <- run([]string{"127.0.0.1:0"}) }()
	select {
	case c := <-code:
		if c != 2 {
			t.Errorf("run exited %d, want 2", c)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run ignored the stray argument and started serving")
	}
}
