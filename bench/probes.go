package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"nexuspp/internal/service"
	"nexuspp/internal/starss"
)

// The micro-probes decompose a task's life into stages, each timed from
// outside through a public call. They run in the traced phase at small
// fixed counts; their numbers have no bound and exist to say where an
// end-to-end change came from.

func probeCount(e env, n int) int {
	if e.Quick {
		return max(n/50, 8)
	}
	return n
}

func nopBody(context.Context) error { return nil }

// keyedTasks builds n independent tasks of k distinct keys each; first
// offsets the key space so successive probes never share a segment.
func keyedTasks(n, k int, first uint64) []starss.Task {
	tasks := make([]starss.Task, n)
	for i := range tasks {
		deps := make([]starss.Dep, k)
		for j := range deps {
			deps[j] = starss.InOut(first + uint64(i*k+j))
		}
		tasks[i] = starss.Task{Deps: deps, Do: nopBody}
	}
	return tasks
}

// starssProbes fills the starss.* probe metrics.
func starssProbes(e env, m map[string]float64) error {
	ctx := context.Background()
	rt := starss.New(starss.Config{Workers: e.P, Window: rtWindow})
	err := runStarssProbes(ctx, e, rt, m)
	if cerr := rt.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("probe runtime: %w", cerr)
	}
	return err
}

func runStarssProbes(ctx context.Context, e env, rt *starss.Runtime, m map[string]float64) error {
	// Submit call time by key count: prepare + admit + lock banks +
	// checkDeps + ready hand-off for a task nothing blocks.
	n := probeCount(e, 20000)
	var keyBase uint64 = 1 << 40
	for _, k := range []int{1, 2, 4, 8} {
		tasks := keyedTasks(n, k, keyBase)
		keyBase += uint64(n * k)
		var last *starss.Handle
		start := time.Now()
		for _, t := range tasks {
			h, err := rt.Submit(ctx, t)
			if err != nil {
				return fmt.Errorf("probe submit k=%d: %w", k, err)
			}
			last = h
		}
		elapsed := time.Since(start)
		if err := last.Wait(ctx); err != nil {
			return fmt.Errorf("probe submit k=%d: %w", k, err)
		}
		if err := rt.Wait(ctx); err != nil {
			return fmt.Errorf("probe submit k=%d: %w", k, err)
		}
		m[fmt.Sprintf("starss.submit_ns_k%d", k)] = float64(elapsed.Nanoseconds()) / float64(n)
	}

	// Dispatch and wake on an idle runtime: one task at a time, so neither
	// number contains queueing.
	n = probeCount(e, 3000)
	dispatch, wake := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		var bodyAt time.Time
		t0 := time.Now()
		h, err := rt.Submit(ctx, starss.Task{
			Deps: []starss.Dep{starss.InOut(keyBase)},
			Do:   func(context.Context) error { bodyAt = time.Now(); return nil },
		})
		if err != nil {
			return fmt.Errorf("probe dispatch: %w", err)
		}
		if err := h.Wait(ctx); err != nil {
			return fmt.Errorf("probe dispatch: %w", err)
		}
		woke := time.Now()
		dispatch[i] = float64(bodyAt.Sub(t0).Nanoseconds()) / 1e3
		wake[i] = float64(woke.Sub(bodyAt).Nanoseconds()) / 1e3
	}
	keyBase++
	ds, ws := sortedCopy(dispatch), sortedCopy(wake)
	m["starss.dispatch_us_p50"], m["starss.dispatch_us_p99"] = percentile(ds, 50), percentile(ds, 99)
	m["starss.wake_us_p50"], m["starss.wake_us_p99"] = percentile(ws, 50), percentile(ws, 99)

	// Release: the successor is queued on the predecessor's segment before
	// the predecessor is allowed to finish, so the interval is exactly the
	// handle-finished path plus the ready hand-off.
	release := make([]float64, n)
	for i := 0; i < n; i++ {
		gate := make(chan struct{})
		var predEnd, succStart time.Time
		key := starss.InOut(keyBase)
		hp, err := rt.Submit(ctx, starss.Task{Deps: []starss.Dep{key}, Do: func(context.Context) error {
			<-gate
			predEnd = time.Now()
			return nil
		}})
		if err != nil {
			return fmt.Errorf("probe release: %w", err)
		}
		hs, err := rt.Submit(ctx, starss.Task{Deps: []starss.Dep{key}, Do: func(context.Context) error {
			succStart = time.Now()
			return nil
		}})
		close(gate)
		if err != nil {
			return fmt.Errorf("probe release: %w", err)
		}
		if err := hp.Wait(ctx); err != nil {
			return fmt.Errorf("probe release: %w", err)
		}
		if err := hs.Wait(ctx); err != nil {
			return fmt.Errorf("probe release: %w", err)
		}
		release[i] = float64(succStart.Sub(predEnd).Nanoseconds()) / 1e3
	}
	keyBase++
	rs := sortedCopy(release)
	m["starss.release_us_p50"], m["starss.release_us_p99"] = percentile(rs, 50), percentile(rs, 99)

	// Scope cost: the same batches through Scope.SubmitAll and through
	// Runtime.SubmitAll, alternating so drift hits both alike.
	batches := probeCount(e, 400)
	scope := rt.Scope("probe")
	var plainNS, scopedNS int64
	for b := 0; b < batches; b++ {
		tasks := keyedTasks(closedBatch, 1, keyBase)
		keyBase += closedBatch
		submit := rt.SubmitAll
		if b%2 == 1 {
			submit = scope.SubmitAll
		}
		start := time.Now()
		hs, err := submit(ctx, tasks)
		d := time.Since(start).Nanoseconds()
		if err != nil {
			return fmt.Errorf("probe scope: %w", err)
		}
		if err := hs[len(hs)-1].Wait(ctx); err != nil {
			return fmt.Errorf("probe scope: %w", err)
		}
		if err := rt.Wait(ctx); err != nil {
			return fmt.Errorf("probe scope: %w", err)
		}
		if b%2 == 1 {
			scopedNS += d
		} else {
			plainNS += d
		}
	}
	perSide := float64(batches/2) * closedBatch
	m["starss.scope_ns_per_task"] = float64(scopedNS)/perSide - float64(plainNS)/perSide
	return nil
}

// wireProbes times encoding/json on the workload's exact request body.
func wireProbes(m map[string]float64, batch []service.TaskSpec) error {
	const rounds = 300
	tasks := float64(len(batch) * rounds)
	req := service.SubmitRequest{Tasks: batch}
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	m["wire.bytes_per_task"] = float64(len(body)) / float64(len(batch))

	start := time.Now()
	for i := 0; i < rounds; i++ {
		var got service.SubmitRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&got); err != nil {
			return fmt.Errorf("wire probe decode: %w", err)
		}
		if len(got.Tasks) != len(batch) {
			return fmt.Errorf("wire probe decode: %d tasks of %d", len(got.Tasks), len(batch))
		}
	}
	m["wire.decode_ns_per_task"] = float64(time.Since(start).Nanoseconds()) / tasks

	start = time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := json.Marshal(req); err != nil {
			return fmt.Errorf("wire probe encode: %w", err)
		}
	}
	m["wire.encode_ns_per_task"] = float64(time.Since(start).Nanoseconds()) / tasks

	resp := service.AwaitResponse{Done: true, Tasks: make([]service.TaskStatus, len(batch))}
	for i := range resp.Tasks {
		resp.Tasks[i] = service.TaskStatus{ID: uint64(i), State: service.StateOK}
	}
	start = time.Now()
	for i := 0; i < rounds; i++ {
		if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
			return fmt.Errorf("wire probe await encode: %w", err)
		}
	}
	m["wire.await_encode_ns_per_task"] = float64(time.Since(start).Nanoseconds()) / tasks
	return nil
}

// serve runs one request through the handler with an in-memory recorder
// and decodes a 2xx JSON reply into out.
func serve(h http.Handler, method, path string, body []byte, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	if rec.Code/100 != 2 {
		return d, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, rec.Body.String())
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			return d, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return d, nil
}

// tasksOf mirrors what the server builds from a wire batch, for timing
// Scope.SubmitAll on the same shape without the HTTP layer.
func tasksOf(batch []service.TaskSpec) []starss.Task {
	tasks := make([]starss.Task, len(batch))
	for i, spec := range batch {
		deps := make([]starss.Dep, len(spec.Params))
		for j, p := range spec.Params {
			switch p.Mode {
			case "in":
				deps[j] = starss.In(p.Addr)
			case "out":
				deps[j] = starss.Out(p.Addr)
			default:
				deps[j] = starss.InOut(p.Addr)
			}
		}
		tasks[i] = starss.Task{Deps: deps, Do: nopBody}
	}
	return tasks
}

// serviceProbes drives the server's handler in memory — no socket, no
// client — so handler time can be set against the socket path's handler
// span, and decomposed: handler = wire decode + Scope.SubmitAll + the
// session layer's own work. It needs wire.decode_ns_per_task in m.
func serviceProbes(e env, m map[string]float64, batches [][]service.TaskSpec) error {
	ctx := context.Background()
	srv := service.New(service.Config{Workers: e.P})
	err := runServiceProbes(ctx, e, srv, m, batches)
	if cerr := srv.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("probe server: %w", cerr)
	}
	return err
}

func runServiceProbes(ctx context.Context, e env, srv *service.Server, m map[string]float64, batches [][]service.TaskSpec) error {
	h := srv.Handler()
	opens := probeCount(e, 200)
	var openNS int64
	var info service.SessionInfo
	for i := 0; i < opens; i++ {
		d, err := serve(h, http.MethodPost, "/v1/sessions", nil, &info)
		if err != nil {
			return err
		}
		openNS += d.Nanoseconds()
		if i < opens-1 { // the last one carries the probe's submits
			if _, err := serve(h, http.MethodDelete, "/v1/sessions/"+info.Session, nil, nil); err != nil {
				return err
			}
		}
	}
	m["service.open_session_us"] = float64(openNS) / 1e3 / float64(opens)

	rounds := probeCount(e, 600)
	scope := srv.Runtime().Scope("probe")
	var submitNS, scopeNS int64
	tasks := 0
	awaitUS := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		batch := batches[i%len(batches)]
		body, err := json.Marshal(service.SubmitRequest{Tasks: batch})
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		var sub service.SubmitResponse
		d, err := serve(h, http.MethodPost, "/v1/sessions/"+info.Session+"/submit", body, &sub)
		if err != nil {
			return err
		}
		submitNS += d.Nanoseconds()
		tasks += len(batch)
		if err := srv.Runtime().Wait(ctx); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		abody, err := json.Marshal(service.AwaitRequest{IDs: sub.IDs})
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		var aw service.AwaitResponse
		d, err = serve(h, http.MethodPost, "/v1/sessions/"+info.Session+"/await", abody, &aw)
		if err != nil {
			return err
		}
		if !aw.Done || len(aw.Tasks) != len(batch) {
			return fmt.Errorf("service probe: await returned done=%v with %d of %d tasks", aw.Done, len(aw.Tasks), len(batch))
		}
		awaitUS = append(awaitUS, float64(d.Nanoseconds())/1e3)

		// The same batch straight into a scope of the same runtime.
		st := tasksOf(batch)
		start := time.Now()
		hs, err := scope.SubmitAll(ctx, st)
		scopeNS += time.Since(start).Nanoseconds()
		if err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		if err := hs[len(hs)-1].Wait(ctx); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
		if err := srv.Runtime().Wait(ctx); err != nil {
			return fmt.Errorf("service probe: %w", err)
		}
	}
	handler := float64(submitNS) / float64(tasks)
	m["service.submit_handler_ns_per_task"] = handler
	m["service.await_handler_us_p50"] = percentile(sortedCopy(awaitUS), 50)
	m["service.session_ns_per_task"] = handler - m["wire.decode_ns_per_task"] - float64(scopeNS)/float64(tasks)
	return nil
}
