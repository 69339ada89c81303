package service_test

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"nexuspp/internal/service"
	"nexuspp/internal/starss"
)

// The suite drives a real in-process nexusd — service.Server behind an
// httptest listener, exercised through the public client — so every test is
// an end-to-end pass over the wire format, the admission path, and the
// shared runtime.

type testDaemon struct {
	srv    *service.Server
	http   *httptest.Server
	client *service.Client
}

func startDaemon(t *testing.T, cfg service.Config) *testDaemon {
	t.Helper()
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	t.Cleanup(func() {
		hs.Close()
		if err := srv.Close(); err != nil {
			t.Errorf("service close: %v", err)
		}
		tr.CloseIdleConnections()
	})
	c := service.NewClient(hs.URL)
	c.HTTP = &http.Client{Transport: tr}
	return &testDaemon{srv: srv, http: hs, client: c}
}

func specOn(addr uint64, mode string, execUS int64) service.TaskSpec {
	return service.TaskSpec{Params: []service.Param{{Addr: addr, Size: 64, Mode: mode}}, ExecUS: execUS}
}

// TestServiceSessionIsolationIdenticalKeys is the HTTP-level form of the
// multi-tenant invariant: two sessions writing the same address must never
// order against each other. Session A holds addr 7 with a long-running
// writer; session B's writer on the identical address must finish while A's
// is still in flight.
func TestServiceSessionIsolationIdenticalKeys(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID {
		t.Fatalf("two sessions share id %s", a.ID)
	}

	const slowUS = 2_000_000 // 2s: long enough that B's result is unambiguous
	slowIDs, err := a.Submit(ctx, []service.TaskSpec{specOn(7, "inout", slowUS)})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	fastIDs, err := b.Submit(ctx, []service.TaskSpec{specOn(7, "inout", 0)})
	if err != nil {
		t.Fatal(err)
	}
	statuses, err := b.Await(ctx, fastIDs)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("session B's writer took %v: it queued behind session A's writer on the same address", elapsed)
	}
	if statuses[0].State != service.StateOK {
		t.Fatalf("session B task state = %q (%s)", statuses[0].State, statuses[0].Error)
	}

	// A's writer must still be running: same address, different namespace.
	pending, err := a.AwaitOnce(ctx, slowIDs, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if pending.Done || pending.Tasks[0].State != service.StatePending {
		t.Fatalf("session A's slow writer finished implausibly early: %+v", pending.Tasks[0])
	}

	if _, err := a.Await(ctx, slowIDs); err != nil {
		t.Fatal(err)
	}
	for s, want := range map[*service.Session]string{a: "A", b: "B"} {
		st, err := s.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Executed != 1 || st.Failed != 0 || st.Skipped != 0 {
			t.Errorf("session %s stats = %+v, want executed=1", want, st)
		}
	}
}

// TestServiceBackpressure fills one session's window and checks that (a) the
// next submit gets a 429 with Retry-After rather than blocking, (b) another
// session is unaffected, and (c) SubmitWait rides out the backpressure once
// capacity frees up.
func TestServiceBackpressure(t *testing.T) {
	const window = 4
	d := startDaemon(t, service.Config{Workers: 4, SessionWindow: window})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Window != window {
		t.Fatalf("session window = %d, want %d", a.Window, window)
	}

	// A serialized chain on one address: all four occupy the window while
	// only the head can execute, so the window stays full for ~4 × exec.
	chain := make([]service.TaskSpec, window)
	for i := range chain {
		chain[i] = specOn(1, "inout", 400_000)
	}
	chainIDs, err := a.Submit(ctx, chain)
	if err != nil {
		t.Fatal(err)
	}

	_, err = a.Submit(ctx, []service.TaskSpec{specOn(2, "inout", 0)})
	var bp *service.BackpressureError
	if !errors.As(err, &bp) {
		t.Fatalf("submit into a full window returned %v, want BackpressureError", err)
	}
	if bp.RetryAfter <= 0 {
		t.Errorf("BackpressureError.RetryAfter = %v, want > 0", bp.RetryAfter)
	}

	// A full session must not stall anyone else.
	b, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bIDs, err := b.Submit(ctx, []service.TaskSpec{specOn(1, "inout", 0), specOn(2, "inout", 0)})
	if err != nil {
		t.Fatalf("second session rejected while first is saturated: %v", err)
	}
	if sts, err := b.Await(ctx, bIDs); err != nil {
		t.Fatal(err)
	} else {
		for _, st := range sts {
			if st.State != service.StateOK {
				t.Fatalf("session B task %d state = %q while session A saturated", st.ID, st.State)
			}
		}
	}

	// The retrying submit gets in once the chain head completes.
	extraIDs, retries, err := a.SubmitWait(ctx, []service.TaskSpec{specOn(2, "inout", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if retries == 0 {
		t.Log("note: window freed before the first retry; backpressure already proven above")
	}
	if sts, err := a.Await(ctx, append(chainIDs, extraIDs...)); err != nil {
		t.Fatal(err)
	} else {
		for _, st := range sts {
			if st.State != service.StateOK {
				t.Fatalf("task %d state = %q (%s)", st.ID, st.State, st.Error)
			}
		}
	}
	st, err := a.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != window+1 || st.InFlight != 0 {
		t.Errorf("session A stats = %+v, want executed=%d in_flight=0", st, window+1)
	}
}

// TestServiceDerivedWindowDoesNotWrap: a shared window derived from
// MaxSessions × SessionWindow is capped, never wrapped. 2^32 × 2^32 wraps
// an int to 0, which clamped both windows to 0 and turned every submit
// into a 400.
func TestServiceDerivedWindowDoesNotWrap(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2, MaxSessions: 1 << 32, SessionWindow: 1 << 32})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s.Window != 1<<18 {
		t.Errorf("session window = %d, want it clamped to the capped shared window of %d", s.Window, 1<<18)
	}
	ids, err := s.Submit(ctx, []service.TaskSpec{specOn(1, "inout", 0)})
	if err != nil {
		t.Fatalf("one-task submit: %v", err)
	}
	if sts, err := s.Await(ctx, ids); err != nil || sts[0].State != service.StateOK {
		t.Fatalf("await = %+v, %v", sts, err)
	}
}

// TestServiceTokensSettledBeforeAwaitReturns pins the accounting order on a
// one-token session: the scope's completion hook runs before a task's
// handle is published, so by the time an await has answered, the admission
// token is back and the stats are final. A closed-loop client must never
// draw a 429 on the submit that follows its await.
func TestServiceTokensSettledBeforeAwaitReturns(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2, SessionWindow: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		ids, err := s.Submit(ctx, []service.TaskSpec{specOn(1, "inout", 0)})
		if err != nil {
			t.Fatalf("submit %d right after an await: %v", i, err)
		}
		sts, err := s.Await(ctx, ids)
		if err != nil {
			t.Fatal(err)
		}
		if sts[0].State != service.StateOK {
			t.Fatalf("task %d state = %q (%s)", i, sts[0].State, sts[0].Error)
		}
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 1000 || st.InFlight != 0 {
		t.Errorf("stats right after the last await = %+v, want executed=1000 in_flight=0", st)
	}
}

// TestServiceDrainOnSessionClose kills a client mid-graph: closing the
// session cancels its unstarted tasks, poisoning unwinds the rest of its
// chain, the shared runtime drains, and new sessions keep working.
func TestServiceDrainOnSessionClose(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 4, SessionWindow: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	a, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized 50 × 200ms = 10s of work if run to completion.
	chain := make([]service.TaskSpec, 50)
	for i := range chain {
		chain[i] = specOn(3, "inout", 200_000)
	}
	if _, err := a.Submit(ctx, chain); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// The drain must finish in a fraction of the full chain's runtime: the
	// in-flight head sees cancellation, everything behind it is skipped.
	deadline := time.Now().Add(5 * time.Second)
	for {
		dbg, err := d.client.Debug(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dbg.Runtime.InFlight == 0 {
			if dbg.Sessions != 0 {
				t.Errorf("closed session still listed in /debug (%d sessions)", dbg.Sessions)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("runtime did not drain after session close: %d still in flight", dbg.Runtime.InFlight)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// The shared resolver is not wedged: a fresh session on the same
	// address completes normally.
	b, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := b.Submit(ctx, []service.TaskSpec{specOn(3, "inout", 0), specOn(3, "inout", 0)})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := b.Await(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		if st.State != service.StateOK {
			t.Fatalf("post-drain task %d state = %q (%s)", st.ID, st.State, st.Error)
		}
	}
}

// TestServiceSessionExpiry covers the vanished-client path: an idle session
// is reaped by the janitor and later requests see 404.
func TestServiceSessionExpiry(t *testing.T) {
	d := startDaemon(t, service.Config{SessionTTL: time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		// Poll /debug (not the session: that would refresh its idle clock).
		dbg, err := d.client.Debug(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dbg.Sessions == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session was never reaped")
		}
		time.Sleep(100 * time.Millisecond)
	}
	_, err = s.Stats(ctx)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("stats on an expired session returned %v, want 404", err)
	}
}

// TestServiceRequestValidation sweeps the client-error surface: unknown
// sessions, empty and oversized batches, bad parameter modes, and the
// session cap.
func TestServiceRequestValidation(t *testing.T) {
	const window = 4
	d := startDaemon(t, service.Config{SessionWindow: window, MaxSessions: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	wantStatus := func(err error, status int, what string) {
		t.Helper()
		var apiErr *service.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("%s returned %v, want HTTP %d", what, err, status)
		}
	}

	ghost := d.client.Session("no-such-session")
	_, err := ghost.Stats(ctx)
	wantStatus(err, http.StatusNotFound, "stats on unknown session")

	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Submit(ctx, nil)
	wantStatus(err, http.StatusBadRequest, "empty submit")

	_, err = s.Submit(ctx, []service.TaskSpec{{Name: "bad", Params: []service.Param{{Addr: 1, Mode: "rw"}}}})
	wantStatus(err, http.StatusBadRequest, "unknown param mode")

	over := make([]service.TaskSpec, window+1)
	for i := range over {
		over[i] = specOn(uint64(i), "out", 0)
	}
	_, err = s.Submit(ctx, over)
	wantStatus(err, http.StatusBadRequest, "batch larger than the session window")

	_, err = s.Await(ctx, []uint64{999})
	wantStatus(err, http.StatusBadRequest, "await on unknown task id")

	if _, err := d.client.Open(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = d.client.Open(ctx)
	wantStatus(err, http.StatusServiceUnavailable, "session beyond MaxSessions")
}

// TestServiceFailurePropagation checks the wire-level split of failed vs
// skipped: a cancelled-body task fails, its in-order dependent is skipped,
// and both are classified in the session stats.
func TestServiceFailurePropagation(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2, SessionWindow: 16})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// A long head plus a dependent, then close the session: the head's
	// body is cancelled (failed), the dependent is poisoned (skipped).
	if _, err := s.Submit(ctx, []service.TaskSpec{specOn(9, "inout", 5_000_000), specOn(9, "inout", 0)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		dbg, err := d.client.Debug(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dbg.Runtime.InFlight == 0 {
			if got := dbg.Runtime.Failed + dbg.Runtime.Skipped; got != 2 {
				t.Fatalf("runtime failed+skipped = %d after drain, want 2", got)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain did not complete")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// retriedTotal reads nexuspp_tasks_retried_total off /metrics.
func retriedTotal(t *testing.T, d *testDaemon) float64 {
	t.Helper()
	body, err := d.client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "nexuspp_tasks_retried_total "); ok {
			var n float64
			if _, err := fmt.Sscan(v, &n); err != nil {
				t.Fatalf("retried counter %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no nexuspp_tasks_retried_total\n%s", body)
	return 0
}

// TestServiceWirePolicy pins what timeout_ms and max_retries mean on the
// wire: every attempt of a body that outlives timeout_ms fails with the
// task-timeout error, each re-arm counts once in
// nexuspp_tasks_retried_total, and a task that sets neither field never
// moves the counter.
func TestServiceWirePolicy(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := retriedTotal(t, d)

	ids, err := s.Submit(ctx, []service.TaskSpec{specOn(2, "out", 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := s.Await(ctx, ids); err != nil || st[0].State != service.StateOK {
		t.Fatalf("plain task: %+v, %v", st, err)
	}
	if got := retriedTotal(t, d); got != before {
		t.Fatalf("a task with no policy moved the retried counter %v -> %v", before, got)
	}

	slow := specOn(1, "out", 10_000_000)
	slow.TimeoutMS, slow.MaxRetries = 20, 2
	if ids, err = s.Submit(ctx, []service.TaskSpec{slow}); err != nil {
		t.Fatal(err)
	}
	st, err := s.Await(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].State != service.StateFailed || !strings.Contains(st[0].Error, starss.ErrTaskTimeout.Error()) {
		t.Fatalf("slow task = %+v, want failed with %q", st[0], starss.ErrTaskTimeout)
	}
	if got := retriedTotal(t, d) - before; got != 2 {
		t.Fatalf("retried counter rose by %v, want 2 (max_retries)", got)
	}
}

// TestServiceMultiClientStress is the -race soak: several concurrent
// clients hammer one in-process daemon with overlapping addresses, retrying
// through backpressure, and every session must account for exactly its own
// tasks. Afterwards the daemon shuts down without leaking goroutines.
func TestServiceMultiClientStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	srv := service.New(service.Config{Workers: 4, SessionWindow: 32, MaxSessions: 16})
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	client := service.NewClient(hs.URL)
	client.HTTP = &http.Client{Transport: tr}

	const (
		clients       = 4
		tasksPerBatch = 16
		batches       = 12
		total         = tasksPerBatch * batches
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			s, err := client.Open(ctx)
			if err != nil {
				errCh <- err
				return
			}
			modes := []string{"in", "out", "inout"}
			for b := 0; b < batches; b++ {
				batch := make([]service.TaskSpec, tasksPerBatch)
				for i := range batch {
					// Eight addresses shared by every client: heavy
					// same-address traffic across namespaces.
					batch[i] = specOn(uint64(rng.Intn(8)), modes[rng.Intn(len(modes))], 0)
				}
				if _, _, err := s.SubmitWait(ctx, batch); err != nil {
					errCh <- fmt.Errorf("submit batch %d: %w", b, err)
					return
				}
			}
			sts, err := s.Await(ctx, nil)
			if err != nil {
				errCh <- err
				return
			}
			for _, st := range sts {
				if st.State != service.StateOK {
					errCh <- fmt.Errorf("task %d state %q: %s", st.ID, st.State, st.Error)
					return
				}
			}
			stat, err := s.Stats(ctx)
			if err != nil {
				errCh <- err
				return
			}
			if stat.Executed != total || stat.Submitted != total || stat.InFlight != 0 {
				errCh <- fmt.Errorf("session %s stats = %+v, want %d/%d executed", s.ID, stat, total, total)
				return
			}
			errCh <- s.Close(ctx)
		}(int64(c + 1))
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Error(err)
		}
	}

	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("service close: %v", err)
	}
	tr.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak after shutdown: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// rawPost sends body as-is to a session endpoint and returns the status and
// the decoded error message (empty on 2xx).
func rawPost(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("POST %s: Content-Type %q", url, ct)
	}
	if resp.StatusCode/100 == 2 {
		return resp.StatusCode, ""
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("POST %s: HTTP %d without a typed error body: %v", url, resp.StatusCode, err)
	}
	return resp.StatusCode, er.Error
}

// TestServiceMalformedBodies covers what the decoder and the body bound
// reject — each with a typed 4xx, its endpoint's message prefix,
// and the session's admission tokens untouched.
func TestServiceMalformedBodies(t *testing.T) {
	const window = 4
	d := startDaemon(t, service.Config{SessionWindow: window})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base := d.http.URL + "/v1/sessions/" + s.ID
	huge := strings.Repeat(" ", 8<<20) + `{"tasks":null}`
	for _, tc := range []struct {
		name, endpoint string
		body           io.Reader
		status         int
		message        string
	}{
		{"trailing bytes", "/submit", strings.NewReader(`{"tasks":[{"params":[{"addr":1,"mode":"in"}]}]} x`), 400, "submit: invalid JSON: "},
		{"second document", "/await", strings.NewReader(`{}{}`), 400, "await: invalid JSON: "},
		{"wrong-typed field", "/submit", strings.NewReader(`{"tasks":[{"params":[{"addr":"1","mode":"in"}]}]}`), 400, "submit: invalid JSON: "},
		{"fractional id", "/await", strings.NewReader(`{"ids":[1.5]}`), 400, "await: invalid JSON: "},
		{"truncated document", "/submit", strings.NewReader(`{"tasks":[{"params":[{"addr":1,"mode":"in"}`), 400, "submit: invalid JSON: "},
		{"empty body", "/await", strings.NewReader(``), 400, "await: invalid JSON: "},
		{"unknown mode, escaped name", "/submit", strings.NewReader(`{"tasks":[{"name":"bad \"q\"","params":[{"addr":1,"mode":"rw"}]}]}`),
			400, `submit: task "bad \"q\"" param 0: unknown mode "rw"`},
		{"null batch", "/submit", strings.NewReader(`{"tasks":null}`), 400, "submit: empty task list"},
		// Counts whose product in nanoseconds wraps around time.Duration.
		{"exec_us past time.Duration", "/submit", strings.NewReader(`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"exec_us":9300000000000000}]}`),
			400, `submit: task "": exec_us 9300000000000000 out of range`},
		{"timeout_ms past time.Duration", "/submit", strings.NewReader(`{"tasks":[{"params":[{"addr":1,"mode":"in"}],"timeout_ms":18446744073710}]}`),
			400, `submit: task "": timeout_ms 18446744073710 out of range`},
		{"oversized, length declared", "/submit", strings.NewReader(huge), 413, "submit: request body exceeds"},
		// Not a *strings.Reader: no Content-Length, so the body is chunked
		// and only reading it finds the bound.
		{"oversized, chunked", "/submit", io.MultiReader(strings.NewReader(huge)), 413, "submit: request body exceeds"},
		{"oversized await", "/await", strings.NewReader(huge), 413, "await: request body exceeds"},
	} {
		status, msg := rawPost(t, base+tc.endpoint, tc.body)
		if status != tc.status || !strings.HasPrefix(msg, tc.message) {
			t.Errorf("%s: HTTP %d %q, want %d %q...", tc.name, status, msg, tc.status, tc.message)
		}
	}
	for _, tc := range []struct {
		name, body string
		status     int
		message    string
	}{
		{"trailing bytes", `{"deadline_ms":5} garbage`, 400, "create session: invalid JSON: "},
		{"deadline_ms past time.Duration", `{"deadline_ms":18446744073710}`, 400, "create session: deadline_ms 18446744073710 out of range"},
		{"oversized", huge, 413, "create session: request body exceeds"},
	} {
		status, msg := rawPost(t, d.http.URL+"/v1/sessions", strings.NewReader(tc.body))
		if status != tc.status || !strings.HasPrefix(msg, tc.message) {
			t.Errorf("create session, %s: HTTP %d %q, want %d %q...", tc.name, status, msg, tc.status, tc.message)
		}
	}

	// A body cut short of its declared length: the connection half-closes
	// after ten of a hundred promised bytes.
	conn, err := net.Dial("tcp", d.http.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/sessions/%s/submit HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"tasks\":[", s.ID)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("short body: no response: %v", err)
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); resp.StatusCode != 400 || err != nil || !strings.HasPrefix(er.Error, "submit: read body: ") {
		t.Errorf("short body: HTTP %d %q (%v), want 400 submit: read body: ...", resp.StatusCode, er.Error, err)
	}
	resp.Body.Close()

	// None of it took a token or a task ID: a full-window batch is still
	// admitted, from ID 0.
	if st, err := s.Stats(ctx); err != nil || st.Submitted != 0 || st.InFlight != 0 {
		t.Fatalf("stats after rejected bodies = %+v, %v; want nothing submitted or in flight", st, err)
	}
	full := make([]service.TaskSpec, window)
	for i := range full {
		full[i] = specOn(uint64(i), "out", 0)
	}
	ids, err := s.Submit(ctx, full)
	if err != nil || len(ids) != window || ids[0] != 0 {
		t.Fatalf("full-window batch after rejected bodies: ids %v, %v", ids, err)
	}
	if _, err := s.Await(ctx, nil); err != nil {
		t.Fatal(err)
	}
}

// TestServiceAwaitTimeoutClamp sends await timeouts too large for a
// time.Duration. Each is clamped to the two-minute cap, so the await waits
// for a 50 ms task instead of answering pending at once on a wrapped-around
// short or negative wait.
func TestServiceAwaitTimeoutClamp(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, ms := range []int64{1 << 62, 9300000000000} {
		ids, err := s.Submit(ctx, []service.TaskSpec{specOn(uint64(i), "inout", 50_000)})
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf(`{"ids":[%d],"timeout_ms":%d}`, ids[0], ms)
		resp, err := http.Post(d.http.URL+"/v1/sessions/"+s.ID+"/await", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ar service.AwaitResponse
		err = json.NewDecoder(resp.Body).Decode(&ar)
		resp.Body.Close()
		if err != nil || !ar.Done || len(ar.Tasks) != 1 || ar.Tasks[0].State != "ok" {
			t.Errorf("await timeout_ms %d: HTTP %d %+v (%v), want the task done ok", ms, resp.StatusCode, ar, err)
		}
	}
}

// TestServiceConcurrentSubmitKeepsBatchesApart hammers the pooled request
// scratch, task slices and body buffers from many sessions at once. Every
// batch interleaves two chains on addresses of its own: one whose head
// times out, so the rest of it must be skipped, and one that must run. A
// request decoded into memory another batch still used — its params, deps
// or names — would cross the chains (or trip the race detector).
func TestServiceConcurrentSubmitKeepsBatchesApart(t *testing.T) {
	const clients, rounds, chain = 8, 12, 6
	d := startDaemon(t, service.Config{Workers: 4, SessionWindow: 2 * chain})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := d.client.Open(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			for r := 0; r < rounds; r++ {
				doomed := uint64(c)<<32 | uint64(r)<<8 | 1
				fine := doomed + 1
				var batch []service.TaskSpec
				for i := 0; i < chain; i++ {
					head := service.TaskSpec{
						Name:   fmt.Sprintf("c%d-r%d-doomed-%d", c, r, i),
						Params: []service.Param{{Addr: doomed, Size: 8, Mode: "inout"}},
					}
					if i == 0 {
						// Long enough for the batch to be queued behind the
						// head before it fails, under -race too: a chain
						// whose key has drained is no longer poisoned.
						head.ExecUS, head.TimeoutMS = 10_000_000, 30
					}
					batch = append(batch, head, service.TaskSpec{
						Name:   fmt.Sprintf("c%d-r%d-fine-%d", c, r, i),
						Params: []service.Param{{Addr: fine, Size: 8, Mode: "inout"}, {Addr: doomed + 2 + uint64(i), Mode: "out"}},
					})
				}
				ids, _, err := s.SubmitWait(ctx, batch)
				if err != nil {
					t.Errorf("client %d round %d: submit: %v", c, r, err)
					return
				}
				statuses, err := s.Await(ctx, ids)
				if err != nil || len(statuses) != len(batch) {
					t.Errorf("client %d round %d: await: %d statuses, %v", c, r, len(statuses), err)
					return
				}
				for i, st := range statuses {
					want := service.StateOK
					switch {
					case i == 0:
						want = service.StateFailed
					case i%2 == 0:
						want = service.StateSkipped
					}
					if st.ID != ids[i] || st.State != want {
						t.Errorf("client %d round %d task %d (%s): id %d state %s (%s), want id %d state %s",
							c, r, i, batch[i].Name, st.ID, st.State, st.Error, ids[i], want)
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
