package faults

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
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
	if in.Should(SiteTaskError, 0) || in.Peek(SiteTaskError, 0) || in.ShouldSeq(SiteReqDup) {
		t.Error("nil injector fired")
	}
	if in.Fired(SiteTaskError) != 0 || in.Counts() != nil {
		t.Error("nil injector counted")
	}
	if New(nil) != nil || New(&Plan{Seed: 1}) != nil {
		t.Error("empty plan compiled to a non-nil injector")
	}
}

// TestTransportWire exercises the client-side RoundTripper against a real
// server: a duplicated request arrives twice, and a dropped response is
// still fully served.
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
