package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nexuspp/internal/service"
	"nexuspp/internal/sim"
	iw "nexuspp/internal/workload"
)

// The two service workloads reach the runtime the way a tenant does:
// service.Client -> net/http over a loopback socket -> service.Server ->
// session -> starss.Scope -> the shared runtime. Each of the P load
// generators owns one http.Client with one connection.
const (
	closedBatch = 64
	// closedBatchesPerSession is one repeat's work per session; with P
	// sessions a repeat is P*closedBatchesPerSession*closedBatch tasks.
	closedBatchesPerSession = 300

	openRate     = 1000 // requests per second, fixed
	openChain    = 8    // tasks per request, one inout chain
	openSessions = 16
	// openRequests is one repeat of the open loop: one second of schedule.
	openRequests = openRate
	// openBodies is how many distinct request bodies the open loop cycles
	// through; at openRate a body comes round again seconds after the
	// chain it started has drained, so requests never queue on each other.
	openBodies = 4096

	benchHeader = "X-Bench-Req"
)

// lane is one load generator's connection plus the span context its
// RoundTripper reads. A lane carries one request at a time, so the fields
// need no lock.
type lane struct {
	id     int
	client *service.Client
	tr     *tracer
	parent int32
	req    uint64
}

// spanTransport is the benchmark's RoundTripper: on traced repeats it
// spans each HTTP round trip under the lane's current client span and
// tells the server-side middleware which span caused the request.
type spanTransport struct {
	next http.RoundTripper
	ln   *lane
}

func routeOf(path string) string {
	switch {
	case strings.HasSuffix(path, "/submit"):
		return "submit"
	case strings.HasSuffix(path, "/await"):
		return "await"
	default:
		return "other"
	}
}

func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.ln.tr
	if tr == nil {
		return t.next.RoundTrip(req)
	}
	id := tr.begin("http.roundtrip:"+routeOf(req.URL.Path), t.ln.parent, t.ln.req, t.ln.id)
	req.Header.Set(benchHeader, strconv.FormatUint(t.ln.req, 10)+"/"+strconv.Itoa(int(id))+"/"+strconv.Itoa(t.ln.id))
	resp, err := t.next.RoundTrip(req)
	tr.end(id)
	return resp, err
}

// statusWriter lets the middleware see the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// svcServer is the server half shared by both service workloads: the
// service, its loopback listener and the span middleware around its
// handler.
type svcServer struct {
	srv  *service.Server
	http *http.Server
	base string
	done chan error

	tr       atomic.Pointer[tracer]
	requests atomic.Uint64
	got429   atomic.Uint64
	got503   atomic.Uint64
}

func startServer(workers int) (*svcServer, error) {
	s := &svcServer{srv: service.New(service.Config{Workers: workers}), done: make(chan error, 1)}
	inner := s.srv.Handler()
	s.http = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		hdr := r.Header.Get(benchHeader)
		if tr == nil || hdr == "" {
			inner.ServeHTTP(w, r)
			return
		}
		// req/parent-span/lane, as spanTransport wrote them.
		parts := strings.Split(hdr, "/")
		var req uint64
		parent, ln := int(noSpan), 0
		if len(parts) == 3 {
			req, _ = strconv.ParseUint(parts[0], 10, 64)
			parent, _ = strconv.Atoi(parts[1])
			ln, _ = strconv.Atoi(parts[2])
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		id := tr.begin("service.handler:"+routeOf(r.URL.Path), int32(parent), req, 100+ln)
		inner.ServeHTTP(sw, r)
		tr.end(id)
		s.requests.Add(1)
		switch sw.code {
		case http.StatusTooManyRequests:
			s.got429.Add(1)
		case http.StatusServiceUnavailable:
			s.got503.Add(1)
		}
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.srv.Close() // Close only reports infrastructure state; the listen error is the cause
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.base = "http://" + l.Addr().String()
	go func() { s.done <- s.http.Serve(l) }()
	return s, nil
}

// newLanes opens n connections to the server, one per load generator.
func (s *svcServer) newLanes(n int) []*lane {
	lanes := make([]*lane, n)
	for i := range lanes {
		ln := &lane{id: i, parent: noSpan}
		tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		ln.client = service.NewClient(s.base)
		ln.client.HTTP = &http.Client{Transport: &spanTransport{next: tp, ln: ln}}
		lanes[i] = ln
	}
	return lanes
}

func closeLanes(lanes []*lane) {
	for _, ln := range lanes {
		ln.client.HTTP.CloseIdleConnections()
	}
}

// setTracer switches span recording for the lanes and the middleware.
func (s *svcServer) setTracer(lanes []*lane, tr *tracer) {
	s.tr.Store(tr)
	for _, ln := range lanes {
		ln.tr = tr
	}
}

func (s *svcServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.srv.Close())
}

// request performs one operation on a lane — submit a batch, await its
// ids — and reports whether every awaited task ended ok.
func request(ctx context.Context, ln *lane, sess *service.Session, reqID uint64, batch []service.TaskSpec) error {
	tr := ln.tr
	reqSpan := tr.begin("req", noSpan, reqID, ln.id)
	defer tr.end(reqSpan)
	ln.req = reqID

	ln.parent = tr.begin("client.submit", reqSpan, reqID, ln.id)
	ids, err := sess.Submit(ctx, batch)
	tr.end(ln.parent)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if len(ids) != len(batch) {
		return fmt.Errorf("submit: %d ids for %d tasks", len(ids), len(batch))
	}
	ln.parent = tr.begin("client.await", reqSpan, reqID, ln.id)
	statuses, err := sess.Await(ctx, ids)
	tr.end(ln.parent)
	if err != nil {
		return fmt.Errorf("await: %w", err)
	}
	if len(statuses) != len(ids) {
		return fmt.Errorf("await: %d results for %d tasks", len(statuses), len(ids))
	}
	for _, st := range statuses {
		if st.State != service.StateOK {
			return fmt.Errorf("task %d ended %s: %s", st.ID, st.State, st.Error)
		}
	}
	return nil
}

// checkSession is the per-session accounting gate: everything submitted
// was executed and nothing is left in flight. The session's counters move
// just after a task's handle completes (the scope's hook runs behind the
// close that wakes await), so an await can return a moment before the last
// counter settles: the gate gives the counters a second to do so.
func checkSession(ctx context.Context, sess *service.Session) error {
	deadline := time.Now().Add(time.Second)
	for {
		st, err := sess.Stats(ctx)
		if err != nil {
			return fmt.Errorf("session stats: %w", err)
		}
		if st.Executed == st.Submitted && st.InFlight == 0 && st.Failed == 0 && st.Skipped == 0 {
			return nil
		}
		if st.Failed != 0 || st.Skipped != 0 || time.Now().After(deadline) {
			return fmt.Errorf("session accounting: submitted %d executed %d failed %d skipped %d in flight %d",
				st.Submitted, st.Executed, st.Failed, st.Skipped, st.InFlight)
		}
		time.Sleep(time.Millisecond)
	}
}

// dagBatches cuts a seeded random DAG into wire batches. Bodies are empty
// (zero exec_us): the service path is what is being timed.
func dagBatches(seed uint64, batches, size int) [][]service.TaskSpec {
	src := iw.RandomDAG(iw.RandomDAGConfig{Tasks: batches * size, Seed: seed, BaseAddr: seedBase(0x3000_0000, seed)})
	out := make([][]service.TaskSpec, 0, batches)
	cur := make([]service.TaskSpec, 0, size)
	for {
		spec, ok := src.Next()
		if !ok {
			break
		}
		spec.Exec = 0
		cur = append(cur, service.FromTraceSpec(spec))
		if len(cur) == size {
			out = append(out, cur)
			cur = make([]service.TaskSpec, 0, size)
		}
	}
	return out
}

// --- svc_closed ------------------------------------------------------------

type closedInstance struct {
	e       env
	genNS   float64
	server  *svcServer
	lanes   []*lane
	batches [][][]service.TaskSpec // per session
	// sessions are the current repeat's; endRepeat deletes them after the
	// live heap — which their never-pruned handle maps dominate — is read.
	sessions []*service.Session
	reqSeq   atomic.Uint64
}

func closedWorkload() workload {
	return workload{def: workloadDefs[3], hostScaled: true, setup: func(e env) (instance, error) {
		n := closedBatchesPerSession
		if e.Quick {
			n = 4
		}
		start := time.Now()
		c := &closedInstance{e: e}
		for s := 0; s < e.P; s++ {
			c.batches = append(c.batches, dagBatches(e.Seed+uint64(s)*7919, n, closedBatch))
		}
		c.genNS = float64(time.Since(start).Nanoseconds()) / float64(c.tasksPerRepeat())
		var err error
		if c.server, err = startServer(e.P); err != nil {
			return nil, err
		}
		c.lanes = c.server.newLanes(e.P)
		return c, nil
	}}
}

func (c *closedInstance) tasksPerRepeat() int {
	n := 0
	for _, s := range c.batches {
		n += len(s) * closedBatch
	}
	return n
}

func (c *closedInstance) repeat(tr *tracer) (repResult, error) {
	ctx := context.Background()
	c.server.setTracer(c.lanes, tr)
	c.sessions = c.sessions[:0]
	for _, ln := range c.lanes {
		sess, err := ln.client.Open(ctx)
		if err != nil {
			return repResult{}, fmt.Errorf("open session: %w", err)
		}
		c.sessions = append(c.sessions, sess)
	}
	type laneResult struct {
		lat    []float64
		failed int
		err    error
	}
	results := make([]laneResult, len(c.lanes))
	var wg sync.WaitGroup
	start := time.Now()
	for i, ln := range c.lanes {
		wg.Add(1)
		go func(i int, ln *lane) {
			defer wg.Done()
			r := &results[i]
			r.lat = make([]float64, 0, len(c.batches[i]))
			for _, batch := range c.batches[i] {
				t0 := time.Now()
				if err := request(ctx, ln, c.sessions[i], c.reqSeq.Add(1), batch); err != nil {
					r.failed++
					r.err = err
				}
				r.lat = append(r.lat, float64(time.Since(t0).Nanoseconds())/1e3)
			}
		}(i, ln)
	}
	wg.Wait()
	rep := repResult{Tasks: c.tasksPerRepeat(), Wall: time.Since(start)}
	for _, r := range results {
		rep.OpLatUS = append(rep.OpLatUS, r.lat...)
		rep.Failed += r.failed
		if r.err != nil {
			warnf("svc_closed: %d requests failed on one lane, last: %v", r.failed, r.err)
		}
	}
	for _, sess := range c.sessions {
		if err := checkSession(ctx, sess); err != nil {
			return repResult{}, fmt.Errorf("svc_closed: %w", err)
		}
	}
	return rep, nil
}

func (c *closedInstance) endRepeat() error {
	var err error
	for _, sess := range c.sessions {
		err = errors.Join(err, sess.Close(context.Background()))
	}
	c.sessions = c.sessions[:0]
	return err
}

// verify has nothing left to do: every request already checked each
// awaited state and every repeat its sessions' accounting.
func (c *closedInstance) verify() error { return nil }

func (c *closedInstance) close() error {
	closeLanes(c.lanes)
	return c.server.close()
}

func (c *closedInstance) layers(tr *tracer, untraced, traced *phase) (map[string]float64, error) {
	m := map[string]float64{"workload.gen_ns_per_task": c.genNS}
	svcSpanLayers(m, tr, c.server, traced, closedBatch)
	if err := wireProbes(m, c.batches[0][0]); err != nil {
		return nil, err
	}
	if err := serviceProbes(c.e, m, c.batches[0]); err != nil {
		return nil, err
	}
	if err := starssProbes(c.e, m); err != nil {
		return nil, err
	}
	return m, nil
}

// --- svc_open --------------------------------------------------------------

type openInstance struct {
	e      env
	genNS  float64
	server *svcServer
	lanes  []*lane
	// sessions[w][k] is lane w's handle on shared session k.
	sessions [][]*service.Session
	bodies   [][]service.TaskSpec
	pick     []uint8 // request i uses session pick[i%len(pick)]
	issued   int     // requests issued so far, so repeats continue the cycle
	// Generator behaviour over the traced repeats, for loadgen.*.
	lateUS     []float64
	tracedReqs int
	tracedWall time.Duration
}

func openWorkload() workload {
	return workload{def: workloadDefs[4], setup: func(e env) (instance, error) {
		start := time.Now()
		o := &openInstance{e: e}
		rng := sim.NewRand(e.Seed)
		base := seedBase(0x5000_0000, e.Seed)
		for i := 0; i < openBodies; i++ {
			addr := base + uint64(i)*64
			chain := make([]service.TaskSpec, openChain)
			for j := range chain {
				chain[j] = service.TaskSpec{Params: []service.Param{{Addr: addr, Size: 64, Mode: "inout"}}}
			}
			o.bodies = append(o.bodies, chain)
			o.pick = append(o.pick, uint8(rng.Intn(openSessions)))
		}
		o.genNS = float64(time.Since(start).Nanoseconds()) / float64(openBodies*openChain)
		var err error
		if o.server, err = startServer(e.P); err != nil {
			return nil, err
		}
		o.lanes = o.server.newLanes(e.P)
		ctx := context.Background()
		var ids []string
		for k := 0; k < openSessions; k++ {
			sess, err := o.lanes[0].client.Open(ctx)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("open session: %w", err), o.close())
			}
			ids = append(ids, sess.ID)
		}
		for _, ln := range o.lanes {
			var row []*service.Session
			for _, id := range ids {
				row = append(row, ln.client.Session(id))
			}
			o.sessions = append(o.sessions, row)
		}
		return o, nil
	}}
}

func (o *openInstance) tasksPerRepeat() int { return openRequests * openChain }

func (o *openInstance) repeat(tr *tracer) (repResult, error) {
	ctx := context.Background()
	o.server.setTracer(o.lanes, tr)
	n := openRequests
	if o.e.Quick {
		n = 100
	}
	first := o.issued
	o.issued += n
	errs := make([]error, n)
	res := runOpenLoop(wallClock{base: time.Now()}, n, len(o.lanes), time.Second/openRate, func(w, i int) {
		g := first + i
		sess := o.sessions[w][o.pick[g%len(o.pick)]]
		errs[i] = request(ctx, o.lanes[w], sess, uint64(g)+1, o.bodies[g%len(o.bodies)])
	})
	if tr != nil {
		o.lateUS = append(o.lateUS, res.Late...)
		o.tracedReqs += n
		o.tracedWall += res.Elapsed
	}
	rep := repResult{Tasks: n * openChain, Wall: res.Elapsed, OpLatUS: res.Latency}
	var lastErr error
	for _, err := range errs {
		if err != nil {
			rep.Failed++
			lastErr = err
		}
	}
	if lastErr != nil {
		warnf("svc_open: %d of %d requests failed, last: %v", rep.Failed, n, lastErr)
	}
	return rep, nil
}

func (o *openInstance) endRepeat() error { return nil }

func (o *openInstance) verify() error {
	for _, sess := range o.sessions[0] {
		if err := checkSession(context.Background(), sess); err != nil {
			return fmt.Errorf("svc_open: %w", err)
		}
	}
	return nil
}

func (o *openInstance) close() error {
	closeLanes(o.lanes)
	return o.server.close()
}

func (o *openInstance) layers(tr *tracer, untraced, traced *phase) (map[string]float64, error) {
	m := map[string]float64{"workload.gen_ns_per_task": o.genNS}
	svcSpanLayers(m, tr, o.server, traced, openChain)
	late := sortedCopy(o.lateUS)
	m["loadgen.late_p99_us"] = percentile(late, 99)
	m["loadgen.late_max_us"] = late[len(late)-1]
	m["loadgen.achieved_rate"] = float64(o.tracedReqs) / o.tracedWall.Seconds()
	if err := wireProbes(m, o.bodies[0]); err != nil {
		return nil, err
	}
	if err := serviceProbes(o.e, m, o.bodies[:64]); err != nil {
		return nil, err
	}
	if err := starssProbes(o.e, m); err != nil {
		return nil, err
	}
	return m, nil
}

// svcSpanLayers reduces the traced phase's spans and counters to the
// client/service/starss layer metrics both service workloads share.
func svcSpanLayers(m map[string]float64, tr *tracer, s *svcServer, traced *phase, batch int) {
	spans := tr.snapshot()
	self := selfTimes(spans)
	var submitRTT, awaitRTT, handlerSubmit []float64
	var transportNS, clientSelfNS int64
	reqs := 0
	for i, sp := range spans {
		d := float64(sp.End-sp.Start) / 1e3
		switch sp.Name {
		case "req":
			reqs++
		case "http.roundtrip:submit":
			submitRTT = append(submitRTT, d)
			transportNS += self[i]
		case "http.roundtrip:await":
			awaitRTT = append(awaitRTT, d)
			transportNS += self[i]
		case "client.submit", "client.await":
			clientSelfNS += self[i]
		case "service.handler:submit":
			handlerSubmit = append(handlerSubmit, float64(sp.End-sp.Start))
		}
	}
	sr, ar := sortedCopy(submitRTT), sortedCopy(awaitRTT)
	m["client.submit_rtt_us_p50"] = percentile(sr, 50)
	m["client.submit_rtt_us_p99"] = percentile(sr, 99)
	m["client.await_rtt_us_p50"] = percentile(ar, 50)
	m["client.await_rtt_us_p99"] = percentile(ar, 99)
	if reqs > 0 {
		m["client.transport_us_per_req"] = float64(transportNS) / 1e3 / float64(reqs)
		m["client.self_us_per_req"] = float64(clientSelfNS) / 1e3 / float64(reqs)
	}
	m["service.handler_span_ns_per_task"] = mean(handlerSubmit) / float64(batch)
	lat := sortedCopy(traced.OpLatUS)
	m["client.req_p99_us"] = percentile(lat, 99)
	m["client.req_p999_us"] = supportedPercentile(lat, 99.9)
	m["client.req_max_us"] = lat[len(lat)-1]
	if n := s.requests.Load(); n > 0 {
		m["service.rejected_429_ratio"] = float64(s.got429.Load()) / float64(n)
		m["service.shed_503_ratio"] = float64(s.got503.Load()) / float64(n)
	}
	st := s.srv.Runtime().Stats()
	if st.Submitted > 0 {
		m["starss.hazard_ratio"] = float64(st.Hazards) / float64(st.Submitted)
		m["starss.bank_acquisitions_per_task"] = float64(st.BankAcquisitions) / float64(st.Submitted)
	}
	m["starss.max_in_flight"] = float64(st.MaxInFlight)
	if st.BankAcquisitions > 0 {
		m["starss.bank_contended_ratio"] = float64(st.BankContended) / float64(st.BankAcquisitions)
	}
	m["starss.bank_max_queue"] = float64(st.BankMaxQueue)
}
