package service_test

// Robustness surface of the service: idempotent submission, session
// deadlines, overload shedding, the client's retry/backoff discipline, and
// the session-expiry race — the failure modes PR 10 hardened, exercised
// end-to-end over the wire like the rest of the suite.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nexuspp/internal/service"
)

func TestServiceIdempotentSubmit(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs := []service.TaskSpec{specOn(1, "inout", 0), specOn(2, "inout", 0)}

	ids1, dd1, err := s.SubmitIdem(ctx, "key-a", specs)
	if err != nil || dd1 {
		t.Fatalf("first submit = (%v, deduped=%v), want fresh admission", err, dd1)
	}
	ids2, dd2, err := s.SubmitIdem(ctx, "key-a", specs)
	if err != nil || !dd2 {
		t.Fatalf("repeat submit = (%v, deduped=%v), want dedup hit", err, dd2)
	}
	if len(ids1) != 2 || len(ids2) != 2 || ids1[0] != ids2[0] || ids1[1] != ids2[1] {
		t.Fatalf("repeat IDs %v != original %v", ids2, ids1)
	}
	ids3, dd3, err := s.SubmitIdem(ctx, "key-b", specs)
	if err != nil || dd3 {
		t.Fatalf("new-key submit = (%v, deduped=%v), want fresh admission", err, dd3)
	}
	if ids3[0] == ids1[0] {
		t.Fatal("a different key returned the original IDs")
	}
	if _, err := s.Await(ctx, nil); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Two admissions of two tasks each; the dedup hit executed nothing.
	if st.Executed != 4 {
		t.Errorf("executed = %d, want 4 (the retried batch must not double-execute)", st.Executed)
	}
}

// TestServiceIdempotentSubmitConcurrent races N identical submits on one
// key: exactly one must win admission and the rest must wait for it and
// return its IDs, not race a second execution.
func TestServiceIdempotentSubmitConcurrent(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	specs := []service.TaskSpec{specOn(7, "inout", 1000)}

	const callers = 8
	var wg sync.WaitGroup
	ids := make([][]uint64, callers)
	deduped := make([]bool, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i], deduped[i], errs[i] = s.SubmitIdem(ctx, "shared", specs)
		}(i)
	}
	wg.Wait()

	winners := 0
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !deduped[i] {
			winners++
		}
		if len(ids[i]) != 1 || ids[i][0] != ids[0][0] {
			t.Fatalf("caller %d got IDs %v, want %v", i, ids[i], ids[0])
		}
	}
	if winners != 1 {
		t.Errorf("%d callers won admission, want exactly 1", winners)
	}
	if _, err := s.Await(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if st, err := s.Stats(ctx); err != nil || st.Executed != 1 {
		t.Errorf("stats = (%+v, %v), want executed=1", st, err)
	}
}

// TestServiceIdempotencyFailureNotMemoized: a rejected submit must not
// occupy its key — the client's retry with a corrected batch has to work.
func TestServiceIdempotencyFailureNotMemoized(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	bad := []service.TaskSpec{{Params: []service.Param{{Addr: 1, Size: 64, Mode: "bogus"}}}}
	_, _, err = s.SubmitIdem(ctx, "key", bad)
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("bad submit = %v, want 400", err)
	}
	ids, dd, err := s.SubmitIdem(ctx, "key", []service.TaskSpec{specOn(1, "inout", 0)})
	if err != nil || dd || len(ids) != 1 {
		t.Fatalf("retry after rejection = (%v, deduped=%v, ids=%v), want fresh admission", err, dd, ids)
	}
	if _, err := s.Await(ctx, ids); err != nil {
		t.Fatal(err)
	}
}

// TestClientSubMillisecondDurations: a positive duration under 1 ms goes on
// the wire as 1 ms, not as 0, which the server reads as "use the default".
// Sent as 0, AwaitOnce on a pending task would wait out the server's 30 s
// default instead of answering pending, and OpenWithDeadline would open a
// session with no deadline at all.
func TestClientSubMillisecondDurations(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Submit(ctx, []service.TaskSpec{specOn(1, "inout", 500_000)})
	if err != nil {
		t.Fatal(err)
	}
	awaitCtx, cancelAwait := context.WithTimeout(ctx, 3*time.Second)
	resp, err := s.AwaitOnce(awaitCtx, ids, 500*time.Microsecond)
	cancelAwait()
	if err != nil || resp.Done {
		t.Fatalf("AwaitOnce(500µs) on a 500 ms task = (%+v, %v), want pending at once", resp, err)
	}
	if _, err := s.Await(ctx, ids); err != nil {
		t.Fatal(err)
	}

	short, err := d.client.OpenWithDeadline(ctx, 500*time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	_, err = short.Submit(ctx, []service.TaskSpec{specOn(2, "inout", 0)})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("submit 20 ms into a 500µs session = %v, want 410", err)
	}
}

func TestServiceSessionDeadline(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	if _, err := d.client.OpenWithDeadline(ctx, -time.Millisecond); err == nil {
		t.Error("negative deadline accepted, want 400")
	}

	s, err := d.client.OpenWithDeadline(ctx, 150*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.Submit(ctx, []service.TaskSpec{specOn(1, "inout", 0)})
	if err != nil {
		t.Fatalf("submit before the deadline: %v", err)
	}
	if _, err := s.Await(ctx, ids); err != nil {
		t.Fatal(err)
	}

	time.Sleep(200 * time.Millisecond)
	_, err = s.Submit(ctx, []service.TaskSpec{specOn(2, "inout", 0)})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGone {
		t.Fatalf("submit past the deadline = %v, want 410", err)
	}

	// The janitor path drains deadline-dead sessions; after the reap the
	// session is gone entirely.
	if n := d.srv.ReapSessions(); n != 1 {
		t.Errorf("ReapSessions = %d, want 1", n)
	}
	_, err = s.Stats(ctx)
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("stats after reap = %v, want 404", err)
	}
}

// TestServiceOverloadShed fills the global window and checks further submits
// are refused with 503 + Retry-After instead of queueing behind it.
func TestServiceOverloadShed(t *testing.T) {
	d := startDaemon(t, service.Config{
		Workers: 2, Window: 8, SessionWindow: 64, // sheds once 8 are in flight
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Raw POSTs so the Retry-After header is observable.
	submit := func(addr uint64) (status int, retryAfter string) {
		body, _ := json.Marshal(service.SubmitRequest{
			Tasks: []service.TaskSpec{specOn(addr, "inout", 100_000)}, // 100ms body
		})
		resp, err := http.Post(d.http.URL+"/v1/sessions/"+s.ID+"/submit",
			"application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	shed := 0
	for i := uint64(0); i < 24; i++ {
		status, retryAfter := submit(0x100 + i)
		switch status {
		case http.StatusOK, http.StatusCreated:
		case http.StatusServiceUnavailable:
			shed++
			if retryAfter == "" {
				t.Error("503 without a Retry-After header")
			}
		default:
			t.Fatalf("submit %d: unexpected status %d", i, status)
		}
	}
	if shed == 0 {
		t.Fatal("24 submits of 100ms tasks against an 8-slot window never shed")
	}
	if _, err := s.Await(ctx, nil); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if int(st.Executed)+shed != 24 || st.Failed != 0 {
		t.Errorf("executed=%d shed=%d failed=%d: admitted work must all execute", st.Executed, shed, st.Failed)
	}
}

// TestServiceSubmitNeverBlocks pins the submit handler's promise for an
// explicitly small -window: with the shared window full of long bodies,
// every further submit — single tasks, a batch that fits the window but not
// right now, a batch that never could — is answered in a fraction of one
// body time with 200, 429, 503 + Retry-After or 400, never parked until a
// slot frees. What was admitted executes, and the shed counter is exactly
// the 503s clients saw.
func TestServiceSubmitNeverBlocks(t *testing.T) {
	const (
		window = 8
		bodyUS = 250_000
		prompt = bodyUS * time.Microsecond / 2
	)
	d := startDaemon(t, service.Config{Workers: 2, Window: window, SessionWindow: 64})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	a, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Window != window {
		t.Fatalf("session window = %d, want it clamped to the shared window of %d", a.Window, window)
	}
	b, err := d.client.Open(ctx)
	if err != nil {
		t.Fatal(err)
	}

	next := uint64(0x100)
	admitted, shed := 0, 0
	// post submits n independent long tasks raw, so the status, the
	// Retry-After header and the time to answer are all observable.
	post := func(sess *service.Session, n int) int {
		t.Helper()
		specs := make([]service.TaskSpec, n)
		for i := range specs {
			specs[i] = specOn(next, "inout", bodyUS)
			next++
		}
		body, _ := json.Marshal(service.SubmitRequest{Tasks: specs})
		start := time.Now()
		resp, err := http.Post(d.http.URL+"/v1/sessions/"+sess.ID+"/submit", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if took := time.Since(start); took > prompt {
			t.Errorf("submit of %d answered %d after %v: the handler waited (one body is %v)",
				n, resp.StatusCode, took, 2*prompt)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			admitted += n
		case http.StatusServiceUnavailable:
			shed++
			fallthrough
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("%d without a Retry-After header", resp.StatusCode)
			}
		case http.StatusBadRequest:
		default:
			t.Fatalf("submit of %d: unexpected status %d", n, resp.StatusCode)
		}
		return resp.StatusCode
	}

	if got := post(a, window-2); got != http.StatusOK {
		t.Fatalf("%d tasks into an empty window = %d, want 200", window-2, got)
	}
	if got := post(a, window); got != http.StatusServiceUnavailable {
		t.Errorf("batch of %d beside a busy window = %d, want 503", window, got)
	}
	if got := post(a, 2); got != http.StatusOK {
		t.Fatalf("filling the window = %d, want 200", got)
	}
	for i := 0; i < 16; i++ {
		post(a, 1)
	}
	if got := post(a, 32); got != http.StatusBadRequest {
		t.Errorf("batch of 32 on a window of %d = %d, want 400: it can never be admitted", window, got)
	}
	// The window is shared: a session with nothing in flight is shed too.
	post(b, 1)
	if shed == 0 {
		t.Error("nothing was shed with the window full")
	}

	for _, sess := range []*service.Session{a, b} {
		if _, err := sess.Await(ctx, nil); err != nil {
			t.Fatal(err)
		}
	}
	executed := 0
	for _, sess := range []*service.Session{a, b} {
		st, err := sess.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Failed != 0 || st.Skipped != 0 || st.InFlight != 0 || st.MaxInFlight > window {
			t.Errorf("session stats after the drain = %+v", st)
		}
		executed += int(st.Executed)
	}
	if executed != admitted {
		t.Errorf("executed %d of %d admitted tasks", executed, admitted)
	}
	metrics, err := d.client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\nnexuspp_submits_shed_total %d\n", shed); !strings.Contains(metrics, want) {
		t.Errorf("/metrics does not report the %d sheds seen:\n%s", shed, metrics)
	}
}

// TestServiceSessionExpiryRace is the satellite-3 race: the janitor reaping
// a session while submits and awaits are in flight against it. Whatever the
// interleaving, every call must return promptly with nil or a typed API
// error — never an undecodable response, a double-release panic, or a
// wedge. Run under -race.
func TestServiceSessionExpiryRace(t *testing.T) {
	d := startDaemon(t, service.Config{Workers: 4, SessionTTL: 20 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	okErr := func(err error) bool {
		if err == nil {
			return true
		}
		var apiErr *service.APIError
		var bp *service.BackpressureError
		return errors.As(err, &apiErr) || errors.As(err, &bp) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	}

	stop := time.Now().Add(500 * time.Millisecond)
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	report := func(err error) {
		if !okErr(err) {
			select {
			case errCh <- err:
			default:
			}
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				s, err := d.client.Open(ctx)
				if err != nil {
					report(err)
					continue
				}
				s.RetryBudget = 1
				s.RetryBase = time.Millisecond
				addr := uint64(0x9000 + g)
				ids, _, err := s.SubmitWait(ctx, []service.TaskSpec{specOn(addr, "inout", 500)})
				report(err)
				if err == nil {
					_, err = s.Await(ctx, ids)
					report(err)
				}
				report(s.Close(ctx))
			}
		}(g)
	}
	reapDone := make(chan struct{})
	go func() {
		defer close(reapDone)
		for time.Now().Before(stop) {
			d.srv.ReapSessions()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-reapDone
	select {
	case err := <-errCh:
		t.Fatalf("untyped error escaped the expiry race: %v", err)
	default:
	}
	// The daemon cleanup (startDaemon) closes the server and fails the test
	// if the runtime cannot drain — the no-wedge half of the invariant.
}

// TestClientSubmitWaitBudget pins the satellite-1 contract against a server
// that always sheds: capped backoff, a bounded number of attempts, and a
// prompt typed error once the budget is spent.
func TestClientSubmitWaitBudget(t *testing.T) {
	var hits int
	var mu sync.Mutex
	hs := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits++
		mu.Unlock()
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(service.ErrorResponse{Error: "shedding"})
	})
	s := service.NewClient(hs.URL).Session("x")
	s.RetryBudget = 3
	s.RetryBase = time.Millisecond
	s.RetryMaxBackoff = 2 * time.Millisecond

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	start := time.Now()
	_, retries, err := s.SubmitWait(ctx, []service.TaskSpec{specOn(1, "inout", 0)})
	var apiErr *service.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("exhausted SubmitWait = %v, want 503", err)
	}
	if retries != 3 {
		t.Errorf("retries = %d, want the full budget of 3", retries)
	}
	mu.Lock()
	got := hits
	mu.Unlock()
	if got != 4 {
		t.Errorf("server saw %d attempts, want 4 (1 + budget)", got)
	}
	// Retry-After of 1s caps each backoff at 1s; three sleeps with full
	// jitter must stay well under the 10s context.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("exhaustion took %v", elapsed)
	}
}

// TestClientSubmitWaitCtxCancel: a dying context must cut the backoff sleep
// short rather than serving out the full budget.
func TestClientSubmitWaitCtxCancel(t *testing.T) {
	hs := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(service.ErrorResponse{Error: "shedding"})
	})
	s := service.NewClient(hs.URL).Session("x")
	s.RetryBase = 4 * time.Second // first backoff alone would exceed the ctx

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := s.SubmitWait(ctx, []service.TaskSpec{specOn(1, "inout", 0)})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled SubmitWait = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("SubmitWait outlived its context by %v", elapsed)
	}
}

// TestClientAwaitDeadlineClamp pins the satellite-2 contract: Await's
// server-side poll budget is PollTimeout clamped to the caller's deadline —
// never the old hardcoded 10s — and an expired deadline surfaces as
// DeadlineExceeded without another wire round trip.
func TestClientAwaitDeadlineClamp(t *testing.T) {
	var mu sync.Mutex
	var polls []int64
	hs := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
		var req service.AwaitRequest
		// A poll counts only when its body decoded: the client's context may
		// expire mid-request and leave the stub a truncated one.
		if err := json.NewDecoder(r.Body).Decode(&req); err == nil {
			mu.Lock()
			polls = append(polls, req.TimeoutMS)
			mu.Unlock()
		}
		_ = json.NewEncoder(w).Encode(service.AwaitResponse{Done: false}) // never finishes
	})
	s := service.NewClient(hs.URL).Session("x")
	s.PollTimeout = 10 * time.Second

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	_, err := s.Await(ctx, []uint64{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Await past its deadline = %v, want DeadlineExceeded", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(polls) == 0 {
		t.Fatal("no poll ever reached the server")
	}
	for _, tms := range polls {
		if tms < 1 || tms > 150 {
			t.Errorf("poll timeout_ms = %d, want within the caller's 150ms deadline", tms)
		}
	}
}

// TestClientBoundsResponseBody: the client reads an await or submit
// response whole into a pooled buffer, so a server that sends more than the
// 8 MiB a request may carry gets an error, whether it declares the length or
// not, instead of a buffer grown without bound. The body is a valid response
// padded with whitespace: only its length is wrong.
func TestClientBoundsResponseBody(t *testing.T) {
	const maxBody = 8 << 20
	body := []byte(`{"done":true,"tasks":[]}` + strings.Repeat(" ", maxBody))
	for _, declared := range []bool{true, false} {
		hs := newStubServer(t, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if declared {
				w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			}
			_, _ = w.Write(body)
		})
		_, err := service.NewClient(hs.URL).Session("x").AwaitOnce(context.Background(), nil, 0)
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("Content-Length declared %v: a %d-byte response decoded with %v, want an error", declared, len(body), err)
		}
	}
}

// newStubServer runs a canned handler in place of a real daemon, for
// pinning client-side behaviour against fixed server responses.
func newStubServer(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs
}
