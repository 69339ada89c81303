package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
)

// openTestSession starts a server and opens one session on it through the
// handler, returning the session itself for white-box checks.
func openTestSession(t *testing.T, cfg Config) *session {
	t.Helper()
	srv := New(cfg)
	t.Cleanup(func() { _ = srv.Close() })
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", nil))
	var info SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[info.Session]
}

func mustSubmit(t *testing.T, ss *session, specs []TaskSpec) []uint64 {
	t.Helper()
	resp, herr := ss.submit(specs, "")
	if herr != nil {
		t.Fatalf("submit: %d %s", herr.code, herr.msg)
	}
	return resp.IDs
}

// mustAwait awaits ids (every task, when nil) for at most timeoutMS and
// returns a copy of the response.
func mustAwait(t *testing.T, ss *session, ids []uint64, timeoutMS int64) AwaitResponse {
	t.Helper()
	sc := &awaitScratch{req: AwaitRequest{IDs: ids, TimeoutMS: timeoutMS}}
	if herr := ss.await(context.Background(), sc); herr != nil {
		t.Fatalf("await: %d %s", herr.code, herr.msg)
	}
	return AwaitResponse{Done: sc.resp.Done, Tasks: slices.Clone(sc.resp.Tasks)}
}

func liveIDs(ss *session) []uint64 {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var ids []uint64
	for _, lt := range ss.live {
		ids = append(ids, lt.id)
	}
	return ids
}

func quickBatch(n int, base uint64) []TaskSpec {
	specs := make([]TaskSpec, n)
	for i := range specs {
		specs[i] = TaskSpec{Params: []Param{{Addr: base + uint64(i)*64, Mode: "inout"}}}
	}
	return specs
}

// TestSessionSweepKeepsUnfinished pins what a session keeps: a task that
// is still running stays awaitable however many tasks finish behind it,
// and those finished tasks leave the session — they are not held behind
// the unfinished one.
func TestSessionSweepKeepsUnfinished(t *testing.T) {
	ss := openTestSession(t, Config{Workers: 2, SessionWindow: 64})
	head := mustSubmit(t, ss, []TaskSpec{{Params: []Param{{Addr: 1, Mode: "inout"}}, ExecUS: 60_000_000}})
	const rounds, batch = 40, 8
	for r := 0; r < rounds; r++ {
		ids := mustSubmit(t, ss, quickBatch(batch, 0x1000))
		if resp := mustAwait(t, ss, ids, 0); !resp.Done {
			t.Fatalf("round %d: quick batch not done: %+v", r, resp)
		}
	}
	live := liveIDs(ss)
	if len(live) == 0 || live[0] != head[0] {
		t.Fatalf("live = %v, want the running task %d first", live, head[0])
	}
	if len(live) > sweepMin+batch {
		t.Errorf("%d tasks live after %d finished behind one running task, want <= %d", len(live), rounds*batch, sweepMin+batch)
	}

	all := mustAwait(t, ss, nil, 10)
	if all.Done || len(all.Tasks) != 1+rounds*batch {
		t.Fatalf("await-all = done %v, %d tasks, want not done, %d tasks", all.Done, len(all.Tasks), 1+rounds*batch)
	}
	for i, st := range all.Tasks {
		want := StateOK
		if i == 0 {
			want = StatePending
		}
		if st.ID != uint64(i) || st.State != want {
			t.Fatalf("await-all task %d = %+v, want id %d %s", i, st, i, want)
		}
	}

	ss.close(ErrSessionClosed)
	if got := mustAwait(t, ss, head, 0).Tasks[0]; got.State != StateFailed || got.Error == "" {
		t.Fatalf("running task after close = %+v, want failed with its cause", got)
	}
}

// TestSessionSweptOutcomesAnswerRetriedAwait pins that sweeping loses
// nothing await reports: a retried await for a task already swept — failed,
// skipped or ok — gets the answer the first await got.
func TestSessionSweptOutcomesAnswerRetriedAwait(t *testing.T) {
	ss := openTestSession(t, Config{Workers: 2})
	ids := mustSubmit(t, ss, []TaskSpec{
		{Params: []Param{{Addr: 9, Mode: "inout"}}, ExecUS: 1_000_000, TimeoutMS: 1},
		{Params: []Param{{Addr: 9, Mode: "inout"}}},
		{Params: []Param{{Addr: 10, Mode: "inout"}}},
	})
	first := mustAwait(t, ss, ids, 0)
	if !first.Done || first.Tasks[0].State != StateFailed || first.Tasks[1].State != StateSkipped || first.Tasks[2].State != StateOK {
		t.Fatalf("first await = %+v, want failed, skipped, ok", first)
	}
	// The first batch fills live to sweepAt, the second's admission sweeps.
	for range 2 {
		mustAwait(t, ss, mustSubmit(t, ss, quickBatch(sweepMin, 0x2000)), 0)
	}
	if live := liveIDs(ss); slices.Contains(live, ids[0]) || slices.Contains(live, ids[2]) {
		t.Fatalf("live = %v after two sweeps, still holds the first batch %v", live, ids)
	}
	ss.mu.Lock()
	ended := len(ss.ended)
	ss.mu.Unlock()
	if ended != 2 {
		t.Errorf("session remembers %d swept outcomes, want 2 (the failed and the skipped task)", ended)
	}
	if again := mustAwait(t, ss, ids, 0); !slices.Equal(again.Tasks, first.Tasks) || !again.Done {
		t.Fatalf("retried await after the sweep = %+v, want %+v", again, first)
	}
	if all := mustAwait(t, ss, nil, 0); !slices.Equal(all.Tasks[:3], first.Tasks) {
		t.Fatalf("await-all after the sweep starts %+v, want %+v", all.Tasks[:3], first.Tasks)
	}
}

// TestSessionMillionTasksFlatHeap is the long-lived session: a million
// tasks submitted and awaited through one session leave the live heap where
// a quarter of them left it, because a finished task's handle leaves the
// session.
func TestSessionMillionTasksFlatHeap(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a million tasks: too slow under the race detector or -short")
	}
	const tasks, batch = 1 << 20, 256
	ss := openTestSession(t, Config{Workers: 2})
	specs := quickBatch(batch, 0x3000)
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	var quarter uint64
	for n := 0; n < tasks; n += batch {
		if n == tasks/4 {
			quarter = heap()
		}
		if resp := mustAwait(t, ss, mustSubmit(t, ss, specs), 0); !resp.Done {
			t.Fatalf("batch at %d not done", n)
		}
	}
	end := heap()
	t.Logf("live heap %d KB after %d tasks, %d KB after %d; %d tasks live", quarter>>10, tasks/4, end>>10, tasks, len(liveIDs(ss)))
	if end > quarter+1<<20 {
		t.Errorf("live heap grew %d KB over %d tasks, want < 1024 KB", (end-quarter)>>10, tasks*3/4)
	}
	if live := len(liveIDs(ss)); live > 2*batch {
		t.Errorf("%d tasks live in an idle session, want <= %d", live, 2*batch)
	}
}
