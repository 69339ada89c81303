package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand/v2"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Client is a small Go client for the nexusd HTTP API. The zero-value
// http.DefaultClient is used unless HTTP is set.
type Client struct {
	base string
	HTTP *http.Client
}

// NewClient returns a client for a daemon at base (e.g.
// "http://127.0.0.1:8037"); a trailing slash is trimmed.
func NewClient(base string) *Client {
	for len(base) > 0 && base[len(base)-1] == '/' {
		base = base[:len(base)-1]
	}
	return &Client{base: base}
}

// BackpressureError reports a 429: the session window is full. Retry after
// RetryAfter (SubmitWait does this automatically).
type BackpressureError struct {
	RetryAfter time.Duration
	Message    string
}

func (e *BackpressureError) Error() string {
	return fmt.Sprintf("service: backpressure (retry after %v): %s", e.RetryAfter, e.Message)
}

// APIError is any other non-2xx response.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// pooledBody is a request body in a pooled buffer. The transport closes a
// request's body when it is done with it, which can be after Do has
// returned — a server may answer before it has read the request through —
// so Close, not the end of do, is what frees the buffer.
type pooledBody struct {
	bytes.Reader
	buf atomic.Pointer[wireBuf]
}

func newPooledBody(msg wireEncoder) *pooledBody {
	buf := bufPool.Get().(*wireBuf)
	buf.b = msg.appendJSON(buf.b[:0])
	body := new(pooledBody)
	body.Reset(buf.b)
	body.buf.Store(buf)
	return body
}

func (b *pooledBody) Close() error {
	if buf := b.buf.Swap(nil); buf != nil {
		bufPool.Put(buf)
	}
	return nil
}

// newRequest builds the request for one call. The per-task messages are
// encoded by the codec into a pooled buffer, cold ones by encoding/json.
func (c *Client) newRequest(ctx context.Context, method, path string, in any) (*http.Request, error) {
	msg, hot := in.(wireEncoder)
	if !hot {
		var body io.Reader
		if in != nil {
			buf, err := json.Marshal(in)
			if err != nil {
				return nil, err
			}
			body = bytes.NewReader(buf)
		}
		return http.NewRequestWithContext(ctx, method, c.base+path, body)
	}
	body := newPooledBody(msg)
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		_ = body.Close() // only frees the buffer
		return nil, err
	}
	req.ContentLength = int64(body.Len())
	// A body the transport has to send again (a stale keep-alive
	// connection) is encoded again: the first one's buffer may be gone.
	req.GetBody = func() (io.ReadCloser, error) { return newPooledBody(msg), nil }
	return req, nil
}

// do issues one JSON request; in and out may be nil.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	req, err := c.newRequest(ctx, method, path, in)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var er ErrorResponse
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er)
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if s := resp.Header.Get("Retry-After"); s != "" {
				if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
					retry = time.Duration(secs) * time.Second
				}
			}
			return &BackpressureError{RetryAfter: retry, Message: er.Error}
		}
		return &APIError{Status: resp.StatusCode, Message: er.Error}
	}
	switch out := out.(type) {
	case nil:
		return nil
	case wireDecoder:
		// Read whole, as a request is, and bounded as one: at most
		// maxBodyBytes, or errBodyTooLarge.
		buf := bufPool.Get().(*wireBuf)
		defer bufPool.Put(buf)
		if buf.b, err = readAll(buf.b[:0], resp.Body, resp.ContentLength); err != nil {
			return err
		}
		return out.parseJSON(buf.b)
	default:
		return json.NewDecoder(resp.Body).Decode(out)
	}
}

// Debug fetches the server-wide /debug counters.
func (c *Client) Debug(ctx context.Context) (*DebugInfo, error) {
	var d DebugInfo
	if err := c.do(ctx, http.MethodGet, "/debug", nil, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// Metrics fetches the raw /metrics body — Prometheus text exposition
// format, not JSON, so it bypasses the do() helper.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<22))
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", &APIError{Status: resp.StatusCode, Message: string(body)}
	}
	return string(body), nil
}

// Healthy reports whether the daemon answers /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Open creates a new session.
func (c *Client) Open(ctx context.Context) (*Session, error) {
	var info SessionInfo
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", nil, &info); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: info.Session, Window: info.Window}, nil
}

// OpenWithDeadline creates a session whose total lifetime is bounded
// server-side: past the deadline every request against it fails with 410
// and its unfinished tasks drain. Zero means no deadline (plain Open).
func (c *Client) OpenWithDeadline(ctx context.Context, deadline time.Duration) (*Session, error) {
	var info SessionInfo
	req := CreateSessionRequest{DeadlineMS: wireMS(deadline)}
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &info); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: info.Session, Window: info.Window}, nil
}

// Session returns a handle on an existing server session by ID — e.g. one
// created by another process, or for probing error responses.
func (c *Client) Session(id string) *Session { return &Session{c: c, ID: id} }

// Session is a client-side handle on one server session.
type Session struct {
	c *Client
	// ID is the server-assigned session identifier.
	ID string
	// Window is the session's admission window, as reported at creation.
	Window int
	// RetryBudget bounds how many retryable failures (429 backpressure,
	// 503 overload, transport errors under an idempotency key) one
	// SubmitWait call absorbs before giving up. 0 selects 16.
	RetryBudget int
	// RetryBase and RetryMaxBackoff parameterise SubmitWait's capped
	// exponential backoff with full jitter. Zero selects 25ms and the
	// server's Retry-After hint (minimum 1s) respectively.
	RetryBase       time.Duration
	RetryMaxBackoff time.Duration
	// PollTimeout bounds each server-side await poll issued by Await. 0
	// selects 10s; the caller's context deadline always clamps it.
	PollTimeout time.Duration
}

func (s *Session) path(suffix string) string { return "/v1/sessions/" + s.ID + suffix }

// Submit sends one batch. On a full window it returns *BackpressureError
// without retrying; see SubmitWait for the retrying variant.
func (s *Session) Submit(ctx context.Context, tasks []TaskSpec) ([]uint64, error) {
	var resp SubmitResponse
	if err := s.c.do(ctx, http.MethodPost, s.path("/submit"), SubmitRequest{Tasks: tasks}, &resp); err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// SubmitIdem sends one batch under an idempotency key: a repeat of the same
// key on the same session returns the originally assigned IDs without
// re-executing anything, which makes retrying after a transport error safe
// even when the server may have executed the lost request.
func (s *Session) SubmitIdem(ctx context.Context, key string, tasks []TaskSpec) ([]uint64, bool, error) {
	var resp SubmitResponse
	req := SubmitRequest{Tasks: tasks, IdempotencyKey: key}
	if err := s.c.do(ctx, http.MethodPost, s.path("/submit"), req, &resp); err != nil {
		return nil, false, err
	}
	return resp.IDs, resp.Deduped, nil
}

// newIdempotencyKey returns a fresh random submit key.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: idempotency key entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// retryableSubmit classifies an error from one submit round: backpressure
// (429) and overload shed (503) always merit a retry; transport errors —
// where the request may or may not have executed server-side — are
// retryable only because SubmitWait submits under an idempotency key.
func retryableSubmit(err error) bool {
	var bp *BackpressureError
	if errors.As(err, &bp) {
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusServiceUnavailable
	}
	// Anything else non-context is a transport-level failure.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// SubmitWait sends one batch under a fresh idempotency key, retrying
// backpressure (429), overload shed (503) and transport errors with capped
// exponential backoff and full jitter until the batch is admitted, the
// per-call retry budget is exhausted, or ctx is cancelled. It returns the
// assigned IDs and the number of retry rounds it absorbed.
func (s *Session) SubmitWait(ctx context.Context, tasks []TaskSpec) (ids []uint64, retries int, err error) {
	budget := s.RetryBudget
	if budget <= 0 {
		budget = 16
	}
	base := s.RetryBase
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	key := newIdempotencyKey()
	for {
		ids, _, err = s.SubmitIdem(ctx, key, tasks)
		if err == nil || !retryableSubmit(err) || retries >= budget {
			return ids, retries, err
		}
		// Cap the backoff at the server's Retry-After hint when one came
		// back, or at the configured ceiling otherwise.
		max := s.RetryMaxBackoff
		var bp *BackpressureError
		if errors.As(err, &bp) && bp.RetryAfter > 0 {
			max = bp.RetryAfter
		}
		if max <= 0 {
			max = time.Second
		}
		retries++
		if !sleepJitter(ctx, base, max, retries-1) {
			return nil, retries, ctx.Err()
		}
	}
}

// sleepJitter blocks for a full-jitter backoff delay — uniform in
// [0, min(max, base<<attempt)] — returning false when ctx dies first.
func sleepJitter(ctx context.Context, base, max time.Duration, attempt int) bool {
	if attempt > 30 {
		attempt = 30
	}
	d := base
	if d <<= attempt; d <= 0 || d > max {
		d = max
	}
	d = mrand.N(d + 1)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// wireMS converts d to the wire's whole milliseconds. A positive duration
// under 1 ms becomes 1: sent as 0 it would mean the server's default.
func wireMS(d time.Duration) int64 {
	if d > 0 && d < time.Millisecond {
		return 1
	}
	return d.Milliseconds()
}

// AwaitOnce issues a single bounded server-side wait and returns the raw
// response, pending states included (Await loops until everything is done).
// A timeout of 0 selects the server's default.
func (s *Session) AwaitOnce(ctx context.Context, ids []uint64, timeout time.Duration) (*AwaitResponse, error) {
	var resp AwaitResponse
	req := AwaitRequest{IDs: ids, TimeoutMS: wireMS(timeout)}
	if err := s.c.do(ctx, http.MethodPost, s.path("/await"), req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Await blocks until the given tasks (all submitted tasks when ids is
// empty) complete or ctx is cancelled, re-issuing bounded server-side
// waits as needed, and returns their final statuses. Each poll is bounded
// by PollTimeout (default 10s) clamped to the caller's context deadline, so
// a deadline-bearing ctx never parks a poll past its own expiry.
func (s *Session) Await(ctx context.Context, ids []uint64) ([]TaskStatus, error) {
	poll := s.PollTimeout
	if poll <= 0 {
		poll = 10 * time.Second
	}
	for {
		timeout := poll
		if dl, ok := ctx.Deadline(); ok {
			if remain := time.Until(dl); remain < timeout {
				timeout = remain
			}
			if timeout <= 0 {
				return nil, context.DeadlineExceeded
			}
		}
		resp, err := s.AwaitOnce(ctx, ids, timeout)
		if err != nil {
			return nil, err
		}
		if resp.Done {
			return resp.Tasks, nil
		}
		if err := ctx.Err(); err != nil {
			return resp.Tasks, err
		}
	}
}

// Stats fetches the session's counters.
func (s *Session) Stats(ctx context.Context) (*SessionStats, error) {
	var st SessionStats
	if err := s.c.do(ctx, http.MethodGet, s.path("/stats"), nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Close deletes the session, draining any in-flight work server-side.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, s.path(""), nil, nil)
}
