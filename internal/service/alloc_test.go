package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"nexuspp/internal/starss"
)

// TestCodecAllocations pins every message shape the client and the server
// send to the compact reader, by its allocations: a document it stopped
// taking would go to encoding/json, whose decode of the 64-task batch costs
// about 316 allocations. A submit or an await decodes with nothing allocated
// on a decoder and request that are kept, as the server keeps them, but for
// the copy of an idempotency key; a response costs one exact-size allocation
// per slice, and the copy of each error's text — a skipped task's real error
// among them. Encoding into a buffer with room allocates nothing.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only without the race detector")
	}
	// sent is a request as Client.do sends it, encoded into a pooled body;
	// written a response as writeWire answers with it, newline included.
	sent := func(msg wireEncoder) []byte {
		body := newPooledBody(msg)
		b, err := io.ReadAll(body)
		_ = body.Close() // only frees the buffer
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	written := func(msg wireEncoder) []byte {
		rec := httptest.NewRecorder()
		writeWire(rec, http.StatusOK, msg)
		return rec.Body.Bytes()
	}
	pin := func(what string, body []byte, want float64, decode func([]byte) error) {
		t.Helper()
		if got := testing.AllocsPerRun(200, func() {
			if err := decode(body); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}); got != want {
			t.Errorf("%s %q...: %.1f allocations, want %.0f", what, body[:min(len(body), 48)], got, want)
		}
	}

	// A skipped task's error as the runtime words it: it names the task, and
	// a name in quotes would be escaped on the wire and leave the compact form.
	// The writer fails only once the dependent is queued behind it: a writer
	// that finished first would leave the key free and the dependent unskipped.
	boom := errors.New("boom")
	rt := starss.New(starss.Config{Workers: 1})
	gate := make(chan struct{})
	rt.MustSubmit(starss.Task{Deps: []starss.Dep{starss.Out(1)}, Do: func(context.Context) error { <-gate; return boom }})
	dependent := rt.MustSubmit(starss.Task{Deps: []starss.Dep{starss.In(1)}, Do: func(context.Context) error { return nil }})
	close(gate)
	if err := rt.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want the first task's failure", err)
	}
	skipped := dependent.Err().Error()
	if dependent.Outcome() != starss.Skipped {
		t.Fatalf("dependent ended %v (%q), want skipped", dependent.Outcome(), skipped)
	}

	var dec decoder
	var req SubmitRequest
	var await AwaitRequest
	decodeSubmit := func(b []byte) error { return dec.decodeSubmit(b, &req) }
	for name, batch := range map[string][]TaskSpec{"dag64": dagBatch(), "chain8": chainBatch()} {
		pin(name+" submit", sent(SubmitRequest{Tasks: batch}), 0, decodeSubmit)
		pin(name+" submit with an idempotency key", sent(SubmitRequest{Tasks: batch, IdempotencyKey: newIdempotencyKey()}), 1, decodeSubmit)

		ids := make([]uint64, len(batch))
		statuses := make([]TaskStatus, len(batch))
		for i := range ids {
			ids[i] = uint64(i)
			statuses[i] = TaskStatus{ID: uint64(i), State: StateOK}
		}
		pin(name+" await", sent(AwaitRequest{IDs: ids, TimeoutMS: 10_000}), 0, await.parseJSON)
		pin(name+" await of everything", sent(AwaitRequest{TimeoutMS: 10_000}), 0, await.parseJSON)

		submitResponse := func(b []byte) error {
			var r SubmitResponse
			if err := r.parseJSON(b); err != nil || cap(r.IDs) != len(ids) {
				return fmt.Errorf("%d ids in %d, %v", len(r.IDs), cap(r.IDs), err)
			}
			return nil
		}
		pin(name+" submit response", written(&SubmitResponse{IDs: ids}), 1, submitResponse)
		pin(name+" deduped submit response", written(&SubmitResponse{IDs: ids, Deduped: true}), 1, submitResponse)
		awaitResponse := func(b []byte) error {
			var r AwaitResponse
			if err := r.parseJSON(b); err != nil || cap(r.Tasks) != len(statuses) {
				return fmt.Errorf("%d statuses in %d, %v", len(r.Tasks), cap(r.Tasks), err)
			}
			return nil
		}
		pin(name+" await response", written(&AwaitResponse{Done: true, Tasks: statuses}), 1, awaitResponse)
		statuses[len(statuses)-1].State = StatePending
		pin(name+" await response with a pending task", written(&AwaitResponse{Tasks: statuses}), 1, awaitResponse)
		statuses[0] = TaskStatus{ID: 0, State: StateFailed, Error: "starss: task deadline exceeded after 5ms"}
		pin(name+" await response with a failed task", written(&AwaitResponse{Tasks: statuses}), 2, awaitResponse)
		statuses[1] = TaskStatus{ID: 1, State: StateSkipped, Error: skipped}
		pin(name+" await response with a skipped task", written(&AwaitResponse{Tasks: statuses}), 3, awaitResponse)
	}

	// A fresh decoder grows its params slab from nothing: a doubling
	// series per request, still nothing per task.
	body := SubmitRequest{Tasks: dagBatch()}.appendJSON(nil)
	if got := testing.AllocsPerRun(200, func() {
		if err := req.parseJSON(body); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("parseJSON into a kept request: %.1f allocations per 64-task request, want <= 10", got)
	}
	// A named task costs its name, an unknown mode its text.
	pin("a name and an unknown mode", []byte(`{"tasks":[{"name":"named","params":[{"addr":1,"mode":"in"},{"addr":2,"mode":"rw"}]}]}`), 2, decodeSubmit)

	batch := dagBatch()
	ids := make([]uint64, len(batch))
	statuses := make([]TaskStatus, len(batch))
	for i := range ids {
		ids[i] = uint64(i)
		statuses[i] = TaskStatus{ID: uint64(i), State: StateOK}
	}
	dst := make([]byte, 0, 2*len(body))
	for name, msg := range map[string]wireEncoder{
		"SubmitRequest":  &SubmitRequest{Tasks: batch, IdempotencyKey: "key"},
		"SubmitResponse": &SubmitResponse{IDs: ids, Deduped: true},
		"AwaitRequest":   &AwaitRequest{IDs: ids, TimeoutMS: 10},
		"AwaitResponse":  &AwaitResponse{Done: true, Tasks: statuses},
	} {
		if got := testing.AllocsPerRun(200, func() { dst = msg.appendJSON(dst[:0]) }); got != 0 {
			t.Errorf("%s.appendJSON into a sized buffer: %.1f allocations, want 0", name, got)
		}
	}
}

// TestSubmitHandlerAllocations is the budget for one submit request through
// the in-memory handler, the measure behind the benchmark's
// service.submit_handler_ns_per_task: a 64-task batch of two-param tasks may
// cost 36 allocations per request (30 measured) — the recorder, the request,
// the response, the batch's own slices, and the runtime's one admission
// chunk (a handle block and the handle slice; its node block is the last
// request's, off the runtime's free list) — and nothing per task or per
// param: a param is an address dependency in the batch's one slab, its
// session the namespace field of the table key, and its segment comes off a
// bank free list.
func TestSubmitHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only without the race detector")
	}
	const tasks = 64
	srv := New(Config{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	path := openSessionPath(t, h) + "/submit"
	batch := make([]TaskSpec, tasks)
	for i := range batch {
		batch[i] = TaskSpec{Params: []Param{
			{Addr: 0x1000 + uint64(i)*64, Size: 64, Mode: "out"},
			{Addr: 0x1000 + uint64((i+tasks-1)%tasks)*64, Size: 64, Mode: "in"},
		}}
	}
	body := SubmitRequest{Tasks: batch}.appendJSON(nil)
	round := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("submit: HTTP %d %s", rec.Code, rec.Body)
		}
		if err := srv.Runtime().Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		round() // warm-up: pools, map buckets, the session's handle slice
	}
	got := testing.AllocsPerRun(100, round)
	t.Logf("%.1f allocations per %d-task submit round: %.2f per task", got, tasks, got/tasks)
	if budget := 36.0; got > budget {
		t.Errorf("%.1f allocations per %d-task submit round, want <= %.0f", got, tasks, budget)
	}
}

// TestAwaitHandlerAllocations is the budget for one await request through the
// in-memory handler on 64 tasks that have all finished, the common case of
// the benchmark's closed loop: 27 allocations (25 measured) — the recorder,
// the request, the response writer's own — and nothing per task, the scratch
// that holds the ids, handles and statuses being pooled. Nor is there a
// timeout context, which is armed only for a task still pending and would
// cost four more.
func TestAwaitHandlerAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only without the race detector")
	}
	const tasks = 64
	srv := New(Config{Workers: 1})
	defer srv.Close()
	h := srv.Handler()
	path := openSessionPath(t, h)
	batch := make([]TaskSpec, tasks)
	for i := range batch {
		batch[i] = TaskSpec{Params: []Param{{Addr: 0x1000 + uint64(i)*64, Size: 64, Mode: "out"}}}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path+"/submit", bytes.NewReader(SubmitRequest{Tasks: batch}.appendJSON(nil))))
	var sub SubmitResponse
	if err := sub.parseJSON(rec.Body.Bytes()); err != nil || len(sub.IDs) != tasks {
		t.Fatalf("submit: HTTP %d %s", rec.Code, rec.Body)
	}
	if err := srv.Runtime().Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	body := AwaitRequest{IDs: sub.IDs}.appendJSON(nil)
	round := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path+"/await", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("await: HTTP %d %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 20; i++ {
		round() // warm-up: pools
	}
	got := testing.AllocsPerRun(100, round)
	t.Logf("%.1f allocations per %d-task await of finished tasks", got, tasks)
	if budget := 27.0; got > budget {
		t.Errorf("%.1f allocations per %d-task await of finished tasks, want <= %.0f", got, tasks, budget)
	}
}

// openSessionPath opens a session through h and returns its URL path.
func openSessionPath(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	return "/v1/sessions/" + info.Session
}

// BenchmarkCodec times the codec as the server and client call it — on
// buffers and scratch they keep — for the benchmark's two request bodies,
// and the decoders on an indented copy too, which the compact reader hands
// to encoding/json: the /indented variants time that fallback. The root package's BenchmarkWireCodec times the same
// messages through encoding/json's entry points.
func BenchmarkCodec(b *testing.B) {
	for _, tc := range []struct {
		name  string
		batch []TaskSpec
	}{{"dag64", dagBatch()}, {"chain8", chainBatch()}} {
		req := SubmitRequest{Tasks: tc.batch}
		body := req.appendJSON(nil)
		resp := AwaitResponse{Done: true, Tasks: make([]TaskStatus, len(tc.batch))}
		for i := range resp.Tasks {
			resp.Tasks[i] = TaskStatus{ID: uint64(i), State: StateOK}
		}
		respBody := resp.appendJSON(nil)
		perTask := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tc.batch)), "ns/task")
		}
		decode := func(body []byte) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				var dec decoder
				var got SubmitRequest
				for i := 0; i < b.N; i++ {
					if err := dec.decodeSubmit(body, &got); err != nil {
						b.Fatal(err)
					}
				}
				perTask(b)
			}
		}
		b.Run(tc.name+"/decode", decode(body))
		b.Run(tc.name+"/decode/indented", decode(indent(body)))
		b.Run(tc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]byte, 0, len(body))
			for i := 0; i < b.N; i++ {
				dst = req.appendJSON(dst[:0])
			}
			perTask(b)
		})
		b.Run(tc.name+"/await_encode", func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]byte, 0, len(respBody))
			for i := 0; i < b.N; i++ {
				dst = resp.appendJSON(dst[:0])
			}
			perTask(b)
		})
		awaitDecode := func(respBody []byte) func(*testing.B) {
			return func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var got AwaitResponse
					if err := got.parseJSON(respBody); err != nil {
						b.Fatal(err)
					}
				}
				perTask(b)
			}
		}
		b.Run(tc.name+"/await_decode", awaitDecode(respBody))
		b.Run(tc.name+"/await_decode/indented", awaitDecode(indent(respBody)))
	}
}
