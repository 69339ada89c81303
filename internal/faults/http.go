package faults

// HTTP wire injection: a client-side http.RoundTripper that duplicates
// requests or drops fully-served responses. Its two sites reproduce two
// partial-failure modes a distributed StarSs deployment (the Hybrid
// MPI/StarSs case study, arXiv 1204.4086) layers on top of the node-local
// runtime: a retried submit that arrives twice, and the nastiest one — a
// submit the server fully executed whose response never reached the
// client.

import (
	"fmt"
	"io"
	"net/http"
)

// DropError is the transport error surfaced for an injected response
// drop; it wraps ErrInjected and is retryable by the service client's
// idempotent submit path.
type DropError struct {
	// Phase is "response": the request was served, then its response lost.
	Phase string
}

func (e *DropError) Error() string {
	return fmt.Sprintf("faults: injected %s drop", e.Phase)
}

// Unwrap makes errors.Is(err, ErrInjected) hold.
func (e *DropError) Unwrap() error { return ErrInjected }

// Transport wraps a base http.RoundTripper with wire fault injection. A nil
// Injector passes everything through untouched.
type Transport struct {
	// Base is the underlying transport; nil selects http.DefaultTransport.
	Base http.RoundTripper
	// In decides the faults; nil disables injection.
	In *Injector
}

// RoundTrip applies, in order: req_dup (the duplicate is sent first and its
// response discarded — the server sees two requests), the real round trip,
// then resp_drop (the response body is consumed and discarded so the server
// observes a completed exchange).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	in := t.In
	if in == nil {
		return base.RoundTrip(req)
	}
	if in.ShouldSeq(SiteReqDup) {
		if dup := cloneRequest(req); dup != nil {
			if resp, err := base.RoundTrip(dup); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if in.ShouldSeq(SiteRespDrop) {
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		return nil, &DropError{Phase: "response"}
	}
	return resp, nil
}

// cloneRequest builds a re-sendable copy of req, or nil when the body
// cannot be replayed (no GetBody). Requests built by the service client use
// bytes.Reader bodies, for which net/http provides GetBody automatically.
func cloneRequest(req *http.Request) *http.Request {
	dup := req.Clone(req.Context())
	if req.Body == nil {
		return dup
	}
	if req.GetBody == nil {
		return nil
	}
	body, err := req.GetBody()
	if err != nil {
		return nil
	}
	dup.Body = body
	return dup
}
