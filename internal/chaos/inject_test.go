package chaos

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
// always decides the same way, a different seed produces a different
// schedule, and the hash behaves like the probability it is given.
func TestDecisionDeterminism(t *testing.T) {
	same, fired := true, 0
	for key := uint64(0); key < 2000; key++ {
		d := decide(42, siteTaskError, key, 0.3)
		if d != decide(42, siteTaskError, key, 0.3) {
			t.Fatalf("key %d: the same seed, site and key decided twice differently", key)
		}
		if d {
			fired++
		}
		if d != decide(43, siteTaskError, key, 0.3) {
			same = false
		}
	}
	if same {
		t.Error("seeds 42 and 43 produced identical 2000-key schedules")
	}
	// A generous band: the point is that the hash behaves like a
	// probability, not that it is a perfect one.
	if fired < 400 || fired > 800 {
		t.Errorf("p = 0.3 fired %d/2000 times, outside [400, 800]", fired)
	}
}

// TestTaskKeyRerolls: the attempt number must change the key, so a retried
// task re-rolls its fate rather than failing forever.
func TestTaskKeyRerolls(t *testing.T) {
	varied := false
	for idx := uint64(0); idx < 64; idx++ {
		first := decide(9, siteTaskError, taskKey(idx, 0), 0.5)
		for attempt := 1; attempt < 4; attempt++ {
			if decide(9, siteTaskError, taskKey(idx, attempt), 0.5) != first {
				varied = true
			}
		}
	}
	if !varied {
		t.Error("64 tasks × 4 attempts at p = 0.5 never re-rolled a decision")
	}
}

// countingServer counts the requests it serves, reading each body to the end.
func countingServer(t *testing.T) (*httptest.Server, *atomic.Uint64) {
	var served atomic.Uint64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		served.Add(1)
		_, _ = io.WriteString(w, "ok")
	}))
	t.Cleanup(hs.Close)
	return hs, &served
}

// post sends one POST through w and reads its response to the end.
func post(w *wire, url string, body io.Reader) error {
	resp, err := (&http.Client{Transport: w}).Post(url, "text/plain", body)
	if err != nil {
		return err
	}
	discard(resp)
	return nil
}

// TestEveryDiscipline: a period of n hits requests 0, n, 2n, ... and counts
// each fault it injects.
func TestEveryDiscipline(t *testing.T) {
	hs, served := countingServer(t)
	w := &wire{every: 4}
	for i := 0; i < 12; i++ {
		if err := post(w, hs.URL, strings.NewReader("body")); err != nil {
			t.Fatal(err)
		}
	}
	if w.fired.Load() != 3 || served.Load() != 15 { // duplicates of 0, 4 and 8
		t.Errorf("fired %d, served %d; want 3 duplicates of 12 requests, 15 served", w.fired.Load(), served.Load())
	}
}

// TestTransportWire exercises the transport against a real server: a
// duplicated request arrives twice, a dropped response is still served once,
// and a request whose body cannot be replayed is not duplicated or counted.
func TestTransportWire(t *testing.T) {
	t.Run("req_dup", func(t *testing.T) {
		hs, served := countingServer(t)
		w := &wire{every: 1}
		if err := post(w, hs.URL, strings.NewReader("body")); err != nil {
			t.Fatal(err)
		}
		if served.Load() != 2 || w.fired.Load() != 1 {
			t.Errorf("server saw %d requests, fired %d; want 2 (original + duplicate), 1", served.Load(), w.fired.Load())
		}
	})

	t.Run("resp_drop", func(t *testing.T) {
		hs, served := countingServer(t)
		w := &wire{every: 1, drop: true}
		err := post(w, hs.URL, strings.NewReader("body"))
		if !errors.Is(err, errInjected) {
			t.Fatalf("err = %v, want one wrapping errInjected", err)
		}
		if served.Load() != 1 || w.fired.Load() != 1 {
			t.Errorf("server saw %d requests, fired %d; want 1 (served, response lost), 1", served.Load(), w.fired.Load())
		}
	})

	t.Run("unreplayable", func(t *testing.T) {
		hs, served := countingServer(t)
		w := &wire{every: 1}
		// A body of no type net/http knows gets no GetBody.
		if err := post(w, hs.URL, io.MultiReader(strings.NewReader("body"))); err != nil {
			t.Fatal(err)
		}
		if served.Load() != 1 || w.fired.Load() != 0 {
			t.Errorf("server saw %d requests, fired %d; want 1, 0: nothing was duplicated", served.Load(), w.fired.Load())
		}
	})
}
