// Command nexusd is the long-lived, multi-tenant task service daemon: a
// single shared sharded starss runtime serving task-graph submissions from
// many concurrent clients over HTTP — the software analogue of the paper's
// hardware task manager serving many master cores.
//
// Usage:
//
//	nexusd [-addr host:port] [-workers N] [-window N] [-session-window N]
//	       [-session-ttl D] [-max-sessions N]
//
// -window is the Task Pool every session shares and -session-window each
// session's share of it; a submit that does not fit its session's share
// gets 429 + Retry-After, one that does not fit the pool 503 + Retry-After,
// and neither ever waits.
//
// API (JSON everywhere; see internal/service for the wire types):
//
//	POST   /v1/sessions               create a session (isolated keyspace,
//	                                  own window, own stats)
//	POST   /v1/sessions/{id}/submit   submit a batch of task specs; 429 or
//	                                  503 + Retry-After when a window is full
//	POST   /v1/sessions/{id}/await    wait for task completion
//	GET    /v1/sessions/{id}/stats    per-session counters
//	DELETE /v1/sessions/{id}          graceful drain
//	GET    /debug                     server-wide counters (JSON)
//	GET    /metrics                   the same counters plus bank-contention
//	                                  instrumentation in Prometheus text
//	                                  exposition format
//	GET    /healthz                   liveness
//
// On SIGINT/SIGTERM the daemon stops accepting requests, drains every
// session (cancelling unstarted tasks; poisoning unwinds their graphs),
// closes the shared runtime, and verifies no goroutines leaked before
// exiting 0 — a leak exits 1 with a stack dump, which CI treats as a
// failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"nexuspp/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// Connection timeouts. Without them one client that never finishes its
// request headers, or parks an idle keep-alive connection, pins a goroutine
// for the daemon's life. There is deliberately no WriteTimeout (and no
// whole-request ReadTimeout): await long-polls until its tasks complete.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("nexusd", flag.ContinueOnError)
	var (
		addr          = fs.String("addr", "127.0.0.1:8037", "listen address")
		workers       = fs.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		window        = fs.Int("window", 0, "shared runtime in-flight window (0 = derived)")
		sessionWindow = fs.Int("session-window", 256, "per-session in-flight window (backpressure threshold)")
		sessionTTL    = fs.Duration("session-ttl", 2*time.Minute, "idle time before a session is drained")
		maxSessions   = fs.Int("max-sessions", 256, "maximum live sessions")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "nexusd: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	log.SetPrefix("nexusd: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)

	// Everything started from here on must be gone again at shutdown; the
	// signal-handling machinery above is part of the baseline.
	baseline := runtime.NumGoroutine()

	srv := service.New(service.Config{
		Workers:       *workers,
		Window:        *window,
		SessionWindow: *sessionWindow,
		SessionTTL:    *sessionTTL,
		MaxSessions:   *maxSessions,
	})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("listen: %v", err)
		return 1
	}
	httpSrv := newHTTPServer(srv.Handler())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	log.Printf("listening on http://%s (session window %d, ttl %v, max sessions %d)",
		ln.Addr(), *sessionWindow, *sessionTTL, *maxSessions)

	select {
	case sig := <-sigCh:
		log.Printf("received %v, draining", sig)
	case err := <-serveErr:
		log.Printf("serve: %v", err)
		_ = srv.Close()
		return 1
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	<-serveErr // Serve has returned ErrServerClosed
	if err := srv.Close(); err != nil {
		log.Printf("service close: %v", err)
		return 1
	}
	if leaked := waitGoroutines(baseline, 5*time.Second); leaked > 0 {
		log.Printf("goroutine leak: %d above the pre-start baseline of %d", leaked, baseline)
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "%s\n", buf[:runtime.Stack(buf, true)])
		return 1
	}
	log.Printf("clean shutdown")
	return 0
}

// waitGoroutines polls until the goroutine count returns to the baseline
// (plus slack for the runtime's own helpers) or the deadline passes,
// returning the excess.
func waitGoroutines(baseline int, wait time.Duration) int {
	const slack = 2
	deadline := time.Now().Add(wait)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+slack {
			return 0
		}
		if time.Now().After(deadline) {
			return n - (baseline + slack)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
