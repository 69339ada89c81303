package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
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

// TestFaultsOnlyServerSites: the injector reaches only the server edge, so
// -faults accepts server_delay and server_drop and exits 2 on any other
// site, naming the two valid ones, before it listens on anything.
func TestFaultsOnlyServerSites(t *testing.T) {
	for _, spec := range []string{"", "server_delay:0.01:5ms,server_drop:every=100"} {
		if _, err := parseFaults(1, spec); err != nil {
			t.Errorf("parseFaults(%q) = %v, want accepted", spec, err)
		}
	}
	for _, spec := range []string{"task_panic:0.5", "req_drop:every=2", "server_drop:every=3,task_hang:1"} {
		_, err := parseFaults(1, spec)
		if err == nil || !strings.Contains(err.Error(), "server_delay, server_drop") {
			t.Errorf("parseFaults(%q) = %v, want a refusal naming server_delay and server_drop", spec, err)
		}
		if code := run([]string{"-addr", "127.0.0.1:0", "-faults", spec}); code != 2 {
			t.Errorf("nexusd -faults %q exited %d, want 2", spec, code)
		}
	}
}
