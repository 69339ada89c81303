package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestCodecAllocations pins the codec's allocation behaviour on the
// benchmark's 64-task batch: decoding allocates nothing per task — nothing
// at all on a decoder and request that are kept, as the server keeps them
// — and encoding into a buffer with room allocates nothing.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins hold only without the race detector")
	}
	batch := dagBatch()
	body := SubmitRequest{Tasks: batch}.appendJSON(nil)

	var dec decoder
	var req SubmitRequest
	if got := testing.AllocsPerRun(200, func() {
		if err := dec.decodeSubmit(body, &req); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("decodeSubmit on a kept decoder: %.1f allocations per 64-task request, want 0", got)
	}
	// A fresh decoder grows its params slab from nothing: a doubling
	// series per request, still nothing per task.
	if got := testing.AllocsPerRun(200, func() {
		if err := req.parseJSON(body); err != nil {
			t.Fatal(err)
		}
	}); got > 10 {
		t.Errorf("parseJSON into a kept request: %.1f allocations per 64-task request, want <= 10", got)
	}
	// A named task costs its name, an unknown mode its text.
	named := []byte(`{"tasks":[{"name":"named","params":[{"addr":1,"mode":"in"},{"addr":2,"mode":"rw"}]}]}`)
	if got := testing.AllocsPerRun(200, func() {
		if err := dec.decodeSubmit(named, &req); err != nil {
			t.Fatal(err)
		}
	}); got != 2 {
		t.Errorf("decodeSubmit of a name and an unknown mode: %.1f allocations, want 2", got)
	}

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

	// Responses are handed to the caller, so each slice in one is a single
	// exact-size allocation; states are interned.
	sub, aw := SubmitResponse{IDs: ids}.appendJSON(nil), AwaitResponse{Done: true, Tasks: statuses}.appendJSON(nil)
	if got := testing.AllocsPerRun(200, func() {
		var s SubmitResponse
		var a AwaitResponse
		if s.parseJSON(sub) != nil || a.parseJSON(aw) != nil || cap(s.IDs) != len(ids) || cap(a.Tasks) != len(ids) {
			t.Fatal("response decode")
		}
	}); got != 2 {
		t.Errorf("decoding a submit and an await response: %.1f allocations, want 2", got)
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
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	batch := make([]TaskSpec, tasks)
	for i := range batch {
		batch[i] = TaskSpec{Params: []Param{
			{Addr: 0x1000 + uint64(i)*64, Size: 64, Mode: "out"},
			{Addr: 0x1000 + uint64((i+tasks-1)%tasks)*64, Size: 64, Mode: "in"},
		}}
	}
	body := SubmitRequest{Tasks: batch}.appendJSON(nil)
	path := "/v1/sessions/" + info.Session + "/submit"
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

// BenchmarkCodec times the codec as the server and client call it — on
// buffers and scratch they keep — for the benchmark's two request bodies.
// The root package's BenchmarkWireCodec times the same messages through
// encoding/json's entry points.
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
		b.Run(tc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			var dec decoder
			var got SubmitRequest
			for i := 0; i < b.N; i++ {
				if err := dec.decodeSubmit(body, &got); err != nil {
					b.Fatal(err)
				}
			}
			perTask(b)
		})
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
		b.Run(tc.name+"/await_decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var got AwaitResponse
				if err := got.parseJSON(respBody); err != nil {
					b.Fatal(err)
				}
			}
			perTask(b)
		})
	}
}
