package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestDecisionDeterminism is the core contract: the same (seed, site, key)
// triple always decides the same way, across injector instances, and a
// different seed produces a different schedule.
func TestDecisionDeterminism(t *testing.T) {
	plan := &Plan{Seed: 42, Rules: []Rule{{Site: SiteTaskError, Prob: 0.3}}}
	a, b := New(plan), New(plan)
	diff := New(&Plan{Seed: 43, Rules: plan.Rules})

	same, fired := true, 0
	for key := uint64(0); key < 2000; key++ {
		da := a.Should(SiteTaskError, key)
		if da != b.Should(SiteTaskError, key) {
			t.Fatalf("key %d: two injectors with the same seed disagree", key)
		}
		if da {
			fired++
		}
		if da != diff.Should(SiteTaskError, key) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 2000-key schedules")
	}
	// Prob 0.3 over 2000 keys: allow a generous band; the point is that the
	// hash behaves like a probability, not that it is a perfect one.
	if fired < 400 || fired > 800 {
		t.Errorf("prob 0.3 fired %d/2000 times, outside [400, 800]", fired)
	}
	if got := a.Fired(SiteTaskError); got != uint64(fired) {
		t.Errorf("Fired = %d, want %d", got, fired)
	}
}

// TestPeekIsPure verifies Peek agrees with Should decision-for-decision but
// never counts — the property chaos oracles depend on.
func TestPeekIsPure(t *testing.T) {
	in := New(&Plan{Seed: 7, Rules: []Rule{{Site: SiteTaskPanic, Prob: 0.5}}})
	var shouldFired uint64
	for key := uint64(0); key < 500; key++ {
		want := in.Peek(SiteTaskPanic, key)
		if in.Peek(SiteTaskPanic, key) != want {
			t.Fatalf("key %d: Peek is not stable", key)
		}
		if in.Fired(SiteTaskPanic) != shouldFired {
			t.Fatalf("key %d: Peek moved the fired counter", key)
		}
		if in.Should(SiteTaskPanic, key) != want {
			t.Fatalf("key %d: Should disagrees with Peek", key)
		}
		if want {
			shouldFired++
		}
	}
}

// TestEveryDiscipline checks the modulo rule: every=N fires exactly on keys
// divisible by N, and ShouldSeq walks the keys 0, 1, 2, ...
func TestEveryDiscipline(t *testing.T) {
	in := New(&Plan{Seed: 1, Rules: []Rule{{Site: SiteRespDrop, Every: 4}}})
	for key := uint64(0); key < 40; key++ {
		if got, want := in.Peek(SiteRespDrop, key), key%4 == 0; got != want {
			t.Fatalf("every=4 at key %d: got %v, want %v", key, got, want)
		}
	}
	var hits int
	for i := 0; i < 12; i++ {
		if in.ShouldSeq(SiteRespDrop) {
			hits++
		}
	}
	if hits != 3 { // seq keys 0..11, fires at 0, 4, 8
		t.Errorf("ShouldSeq over 12 calls fired %d times, want 3", hits)
	}
}

// TestTaskKeyRerolls: the attempt number must change the key, so a retried
// task re-rolls its fate rather than failing forever.
func TestTaskKeyRerolls(t *testing.T) {
	in := New(&Plan{Seed: 9, Rules: []Rule{{Site: SiteTaskError, Prob: 0.5}}})
	varied := false
	for idx := uint64(0); idx < 64; idx++ {
		first := in.Peek(SiteTaskError, TaskKey(idx, 0))
		for attempt := 1; attempt < 4; attempt++ {
			if in.Peek(SiteTaskError, TaskKey(idx, attempt)) != first {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("64 tasks × 4 attempts at prob 0.5 never re-rolled a decision")
	}
}

// TestNilInjector: the disabled state must be inert through every method.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if in.Should(SiteTaskError, 0) || in.Peek(SiteTaskError, 0) || in.ShouldSeq(SiteReqDrop) {
		t.Error("nil injector fired")
	}
	if in.DelaySeq(SiteReqDelay) != 0 {
		t.Error("nil injector delayed")
	}
	if in.Fired(SiteTaskError) != 0 || in.Counts() != nil {
		t.Error("nil injector counted")
	}
	if in.String() != "faults: disabled" {
		t.Errorf("nil injector String = %q", in.String())
	}
	if New(nil) != nil || New(&Plan{Seed: 1}) != nil {
		t.Error("empty plan compiled to a non-nil injector")
	}
}

// TestDelaySite: a delay rule returns its configured latency when it fires
// and zero otherwise, and counts only the firings.
func TestDelaySite(t *testing.T) {
	in := New(&Plan{Seed: 3, Rules: []Rule{{Site: SiteReqDelay, Every: 2, Delay: 5 * time.Millisecond}}})
	if d := in.DelaySeq(SiteReqDelay); d != 5*time.Millisecond {
		t.Errorf("call 0 delay = %v, want 5ms", d)
	}
	if d := in.DelaySeq(SiteReqDelay); d != 0 {
		t.Errorf("call 1 delay = %v, want 0", d)
	}
	if got := in.Fired(SiteReqDelay); got != 1 {
		t.Errorf("fired = %d, want 1", got)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec(11, "task_panic:0.05, resp_drop:every=4:2ms")
	if err != nil {
		t.Fatal(err)
	}
	if in == nil {
		t.Fatal("valid spec compiled to nil")
	}
	if !in.Peek(SiteRespDrop, 8) || in.Peek(SiteRespDrop, 9) {
		t.Error("resp_drop:every=4 not armed as a modulo rule")
	}
	if d := in.DelaySeq(SiteRespDrop); d != 2*time.Millisecond {
		t.Errorf("resp_drop delay = %v, want 2ms", d)
	}
	if got := in.String(); !strings.Contains(got, "seed=11") || !strings.Contains(got, "task_panic:0.05") {
		t.Errorf("String = %q, want seed and rule spelled out", got)
	}

	if in, err := ParseSpec(1, ""); err != nil || in != nil {
		t.Errorf("empty spec = (%v, %v), want (nil, nil)", in, err)
	}
	for _, bad := range []string{
		"task_panic",          // no rule body
		"nosuchsite:0.5",      // unknown site
		"task_panic:1.5",      // probability out of range
		"task_panic:every=0",  // zero modulo
		"task_panic:0.1:-3ms", // negative delay
		"task_panic:0.1:2ms:x",
	} {
		if _, err := ParseSpec(1, bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestTransportWire exercises the client-side RoundTripper against a real
// server: a duplicated request arrives twice, a dropped response is still
// fully served, and a dropped request never arrives.
func TestTransportWire(t *testing.T) {
	var served atomic.Uint64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		served.Add(1)
		_, _ = io.WriteString(w, "ok")
	}))
	defer hs.Close()

	do := func(tr *Transport) error {
		c := &http.Client{Transport: tr}
		resp, err := c.Post(hs.URL, "text/plain", strings.NewReader("body"))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.Body.Close()
	}

	t.Run("req_dup", func(t *testing.T) {
		served.Store(0)
		in := New(&Plan{Seed: 1, Rules: []Rule{{Site: SiteReqDup, Every: 1}}})
		if err := do(&Transport{In: in}); err != nil {
			t.Fatal(err)
		}
		if served.Load() != 2 {
			t.Errorf("server saw %d requests, want 2 (original + duplicate)", served.Load())
		}
	})

	t.Run("resp_drop", func(t *testing.T) {
		served.Store(0)
		in := New(&Plan{Seed: 1, Rules: []Rule{{Site: SiteRespDrop, Every: 1}}})
		err := do(&Transport{In: in})
		var de *DropError
		if !errors.As(err, &de) || de.Phase != "response" {
			t.Fatalf("err = %v, want response DropError", err)
		}
		if !errors.Is(err, ErrInjected) {
			t.Error("DropError does not unwrap to ErrInjected")
		}
		if served.Load() != 1 {
			t.Errorf("server saw %d requests, want 1 (served, response lost)", served.Load())
		}
	})

	t.Run("req_drop", func(t *testing.T) {
		served.Store(0)
		in := New(&Plan{Seed: 1, Rules: []Rule{{Site: SiteReqDrop, Every: 1}}})
		err := do(&Transport{In: in})
		var de *DropError
		if !errors.As(err, &de) || de.Phase != "request" {
			t.Fatalf("err = %v, want request DropError", err)
		}
		if served.Load() != 0 {
			t.Errorf("server saw %d requests, want 0", served.Load())
		}
	})

	t.Run("disabled", func(t *testing.T) {
		served.Store(0)
		if err := do(&Transport{In: nil}); err != nil {
			t.Fatal(err)
		}
		if served.Load() != 1 {
			t.Errorf("server saw %d requests, want 1", served.Load())
		}
	})
}

// TestMiddleware: server_drop aborts the connection before the handler runs,
// and a nil injector wraps nothing at all.
func TestMiddleware(t *testing.T) {
	var served atomic.Uint64
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
	})
	if got := Middleware(next, nil); got == nil {
		t.Fatal("nil-injector middleware returned nil handler")
	}

	in := New(&Plan{Seed: 1, Rules: []Rule{{Site: SiteServerDrop, Every: 2}}})
	hs := httptest.NewServer(Middleware(next, in))
	defer hs.Close()

	// Seq keys 0, 1: the first request is dropped, the second served.
	if _, err := http.Get(hs.URL); err == nil {
		t.Error("server_drop request succeeded, want transport error")
	}
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	_ = resp.Body.Close()
	if served.Load() != 1 {
		t.Errorf("handler ran %d times, want 1", served.Load())
	}
	if in.Fired(SiteServerDrop) != 1 {
		t.Errorf("server_drop fired %d times, want 1", in.Fired(SiteServerDrop))
	}
}
