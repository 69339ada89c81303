package chaos

// Fault injection for the scenarios: one pure decision function for the
// three task sites, and one client-side transport for the two wire faults.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// errInjected is the root of every injected fault; scenarios and tests
// match it with errors.Is.
var errInjected = errors.New("chaos: injected fault")

// The task sites. decide hashes the site number, so renumbering a site
// changes every schedule and every pinned fingerprint.
const (
	siteTaskError uint64 = iota // the body returns an injected error
	siteTaskPanic               // the body panics; the runtime recovers it
	siteTaskHang                // the body blocks until its deadline fires
)

// splitmix64 is the finalizer of the SplitMix64 generator: a cheap,
// high-quality 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// decide reports whether a task site fires for key under seed at
// probability p. It is a hash, not a stateful generator: a scenario's
// oracle predicts the schedule its bodies then fire, whatever order the
// workers run them in.
func decide(seed, site, key uint64, p float64) bool {
	h := splitmix64(seed ^ (site+1)*0x9e3779b97f4a7c15 ^ splitmix64(key))
	return float64(h>>11)/(1<<53) < p
}

// taskKey is the decision key of one execution attempt of one task; the
// attempt is mixed in so a retried task re-rolls its fate.
func taskKey(index uint64, attempt int) uint64 {
	return splitmix64(index*2654435761 + uint64(attempt))
}

// wire is the client-side transport of the two wire scenarios. They model
// two partial failures a distributed StarSs deployment (the Hybrid
// MPI/StarSs case study, arXiv 1204.4086) adds to the node-local runtime.
// Without drop it duplicates every every-th request: the copy goes first
// and its response is discarded, so the server sees a retried submit twice.
// With drop it loses the response of every every-th served request after
// reading it to the end: the server completed an exchange the client never
// hears of. Requests are numbered from 0, so the first one is hit; the
// numbering is deterministic under a sequential caller.
type wire struct {
	every uint64
	drop  bool
	seq   atomic.Uint64 // requests seen (duplicating) or responses served (dropping)
	fired atomic.Uint64 // faults actually injected
}

func (w *wire) hit() bool { return (w.seq.Add(1)-1)%w.every == 0 }

func (w *wire) RoundTrip(req *http.Request) (*http.Response, error) {
	base := http.DefaultTransport
	if !w.drop && w.hit() {
		if dup := cloneRequest(req); dup != nil {
			if resp, err := base.RoundTrip(dup); err == nil {
				discard(resp)
				w.fired.Add(1)
			}
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil || !w.drop || !w.hit() {
		return resp, err
	}
	discard(resp)
	w.fired.Add(1)
	return nil, fmt.Errorf("%w: response to %s %s dropped", errInjected, req.Method, req.URL.Path)
}

// discard reads a response to the end and closes it, so the server sees a
// completed exchange and the connection can be reused.
func discard(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// cloneRequest builds a re-sendable copy of req, or nil when its body
// cannot be replayed (no GetBody). The service client's requests all can.
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
