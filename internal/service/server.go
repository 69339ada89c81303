package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nexuspp/internal/obs"
	"nexuspp/internal/starss"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the shared runtime's worker-goroutine count; 0 selects
	// GOMAXPROCS.
	Workers int
	// Window is the shared runtime's in-flight window, the Task Pool every
	// session draws from: a batch that does not fit it right now is shed
	// with 503 + Retry-After, never queued. 0 derives it from
	// MaxSessions*SessionWindow (capped at 262144): room for every share.
	Window int
	// SessionWindow is each session's share of Window: the maximum number
	// of its tasks in flight before its submits get 429. 0 selects 256; it
	// is clamped to Window, so no admissible batch exceeds the shared one.
	SessionWindow int
	// SessionTTL is the idle time after which a session is reaped and
	// drained (the vanished-client path). 0 selects 2 minutes.
	SessionTTL time.Duration
	// MaxSessions bounds the number of live sessions; creation beyond it
	// gets 503. 0 selects 256.
	MaxSessions int
}

func (c Config) withDefaults() Config {
	if c.SessionWindow <= 0 {
		c.SessionWindow = 256
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.Window <= 0 {
		// Compare by division: the product itself can wrap.
		c.Window = 1 << 18
		if c.SessionWindow <= c.Window/c.MaxSessions {
			c.Window = c.MaxSessions * c.SessionWindow
		}
	}
	c.SessionWindow = min(c.SessionWindow, c.Window)
	return c
}

// Server is the multi-tenant task service: one shared sharded runtime,
// many isolated sessions. Create with New, expose with Handler, and Close
// to drain everything.
type Server struct {
	cfg   Config
	rt    *starss.Runtime
	mux   *http.ServeMux
	start time.Time

	mu       sync.Mutex
	sessions map[string]*session

	// shed counts submits refused because the shared window had no room
	// for them (errShed), exported through /metrics.
	shed atomic.Uint64
	// retried counts the re-arms of every session's max_retries bodies
	// (starss.Retry), exported through /metrics.
	retried atomic.Uint64

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
	closeOnce   sync.Once
}

// New starts the shared runtime and the session janitor.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg: cfg,
		rt: starss.New(starss.Config{
			Workers: cfg.Workers,
			Window:  cfg.Window,
			// The service always measures bank contention: /metrics exposes
			// it, and the TryLock fast path keeps the cost a counter bump
			// per acquisition.
			BankCounters: true,
		}),
		start:       time.Now(),
		sessions:    make(map[string]*session),
		janitorStop: make(chan struct{}),
	}
	s.routes()
	s.janitorWG.Add(1)
	go s.janitor()
	return s
}

// Runtime exposes the shared runtime for in-process callers (tests,
// embedding).
func (s *Server) Runtime() *starss.Runtime { return s.rt }

// Handler returns the HTTP handler serving the service API.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /debug", s.handleDebug)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sessions", s.handleCreateSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.withSession(s.handleDeleteSession))
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.withSession(s.handleStats))
	s.mux.HandleFunc("POST /v1/sessions/{id}/submit", s.withSession(s.handleSubmit))
	s.mux.HandleFunc("POST /v1/sessions/{id}/await", s.withSession(s.handleAwait))
}

// janitor reaps sessions idle past the TTL — graceful drain for clients
// that disconnected without a DELETE.
func (s *Server) janitor() {
	defer s.janitorWG.Done()
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-ticker.C:
			s.ReapSessions()
		}
	}
}

// ReapSessions drains every session idle past the TTL or already dead (its
// context cancelled, e.g. by a session deadline) and returns the number
// reaped. The janitor calls it on every tick; tests and the chaos suite
// call it directly to force the expiry race without waiting out a tick.
func (s *Server) ReapSessions() int {
	s.mu.Lock()
	var expired []*session
	for id, ss := range s.sessions {
		if ss.idleFor() > s.cfg.SessionTTL || ss.ctx.Err() != nil {
			expired = append(expired, ss)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	for _, ss := range expired {
		ss.close(ErrSessionExpired)
	}
	return len(expired)
}

// Close drains every session and shuts the shared runtime down. Task
// failures of drained sessions are a per-client condition, not a server
// fault; Close reports only infrastructure state.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.janitorStop)
		s.mu.Lock()
		sessions := make([]*session, 0, len(s.sessions))
		for id, ss := range s.sessions {
			sessions = append(sessions, ss)
			delete(s.sessions, id)
		}
		s.mu.Unlock()
		for _, ss := range sessions {
			ss.close(ErrSessionClosed)
		}
		// Close waits for the in-flight window to drain; cancelled bodies
		// return promptly, so shutdown is bounded by one task body.
		_ = s.rt.Close()
	})
	s.janitorWG.Wait()
	return nil
}

// --- HTTP plumbing -------------------------------------------------------

// httpError is a status code plus message, with an optional Retry-After.
type httpError struct {
	code       int
	msg        string
	retryAfter int // seconds; emitted when > 0
}

func badRequest(msg string) *httpError { return &httpError{code: http.StatusBadRequest, msg: msg} }

// maxBodyBytes bounds every request body: the handlers read a body whole
// before decoding it. A batch can never exceed its session's window, so
// this is room for tens of thousands of tasks per request.
const maxBodyBytes = 8 << 20

// wireBuf is a pooled byte buffer: request and response bodies pass
// through one, and nothing decoded from or encoded into it refers to its
// bytes afterwards (codec.go copies or interns every string).
type wireBuf struct{ b []byte }

var bufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// errBodyTooLarge is readAll's error for a body longer than maxBodyBytes.
var errBodyTooLarge = fmt.Errorf("service: body exceeds %d bytes", maxBodyBytes)

// readAll reads r to its end onto dst, which is grown once, up front, when
// size — a Content-Length — says how much is coming. It reads at most one
// byte past maxBodyBytes and stops there with errBodyTooLarge, so no body
// grows a pooled buffer without bound.
func readAll(dst []byte, r io.Reader, size int64) ([]byte, error) {
	if size > 0 && size <= maxBodyBytes {
		dst = slices.Grow(dst, int(size)+1) // +1: room to read the EOF without growing
	}
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), maxBodyBytes+1)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxBodyBytes {
			return dst, errBodyTooLarge
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// readBody reads a request body of at most maxBodyBytes into a pooled
// buffer, which the caller returns to bufPool. what names the endpoint in
// the 413 or 400 an oversized or unreadable body gets.
func readBody(w http.ResponseWriter, r *http.Request, what string) (*wireBuf, *httpError) {
	if r.ContentLength > maxBodyBytes {
		return nil, tooLarge(what)
	}
	buf := bufPool.Get().(*wireBuf)
	var err error
	buf.b, err = readAll(buf.b[:0], http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err == nil {
		return buf, nil
	}
	bufPool.Put(buf)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return nil, tooLarge(what)
	}
	return nil, badRequest(what + ": read body: " + err.Error())
}

func tooLarge(what string) *httpError {
	return &httpError{
		code: http.StatusRequestEntityTooLarge,
		msg:  fmt.Sprintf("%s: request body exceeds %d bytes", what, maxBodyBytes),
	}
}

// writeJSON answers with a cold message (or an error) through
// encoding/json.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeWire answers with one of the per-task messages: encoded by the
// codec into a pooled buffer and sent with its Content-Length, newline
// terminated as json.Encoder's output is.
func writeWire(w http.ResponseWriter, code int, msg wireEncoder) {
	buf := bufPool.Get().(*wireBuf)
	buf.b = append(msg.appendJSON(buf.b[:0]), '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(buf.b)))
	w.WriteHeader(code)
	_, _ = w.Write(buf.b)
	bufPool.Put(buf)
}

func writeError(w http.ResponseWriter, e *httpError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", e.retryAfter))
	}
	writeJSON(w, e.code, ErrorResponse{Error: e.msg})
}

// withSession resolves the {id} path segment; the handler only runs for a
// live session, and every hit refreshes the idle clock.
func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		s.mu.Lock()
		ss, ok := s.sessions[id]
		s.mu.Unlock()
		if !ok {
			writeError(w, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown session %q", id)})
			return
		}
		ss.touch()
		h(w, r, ss)
	}
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("service: session id entropy: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// --- Handlers ------------------------------------------------------------

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	body, herr := readBody(w, r, "create session")
	if herr != nil {
		writeError(w, herr)
		return
	}
	// The body is optional: an empty body means default options. Unlike a
	// json.Decoder, json.Unmarshal rejects bytes after the value.
	var req CreateSessionRequest
	var err error
	if len(bytes.TrimSpace(body.b)) > 0 {
		err = json.Unmarshal(body.b, &req)
	}
	bufPool.Put(body)
	if err != nil {
		writeError(w, badRequest("create session: invalid JSON: "+err.Error()))
		return
	}
	if req.DeadlineMS < 0 {
		writeError(w, badRequest("create session: negative deadline_ms"))
		return
	}
	deadline, err := wireDuration("deadline_ms", req.DeadlineMS, time.Millisecond)
	if err != nil {
		writeError(w, badRequest("create session: "+err.Error()))
		return
	}
	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		writeError(w, &httpError{
			code:       http.StatusServiceUnavailable,
			msg:        fmt.Sprintf("session limit reached (%d)", s.cfg.MaxSessions),
			retryAfter: 5,
		})
		return
	}
	id := newSessionID()
	ss := newSession(context.Background(), id, s.rt.BoundedScope(id, s.cfg.SessionWindow), s.cfg.SessionWindow, deadline, s.start, &s.retried)
	s.sessions[id] = ss
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, SessionInfo{Session: id, Window: ss.window, DeadlineMS: req.DeadlineMS})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request, ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss.id)
	s.mu.Unlock()
	ss.close(ErrSessionClosed)
	writeJSON(w, http.StatusOK, map[string]string{"session": ss.id, "state": "draining"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request, ss *session) {
	writeJSON(w, http.StatusOK, ss.stats())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request, ss *session) {
	body, herr := readBody(w, r, "submit")
	if herr != nil {
		writeError(w, herr)
		return
	}
	sc := submitPool.Get().(*submitScratch)
	defer sc.release()
	err := sc.dec.decodeSubmit(body.b, &sc.req)
	bufPool.Put(body)
	if err != nil {
		writeError(w, badRequest("submit: invalid JSON: "+err.Error()))
		return
	}
	resp, herr := ss.submit(sc.req.Tasks, sc.req.IdempotencyKey)
	if herr != nil {
		if herr == errShed {
			s.shed.Add(1)
		}
		writeError(w, herr)
		return
	}
	writeWire(w, http.StatusOK, resp)
}

func (s *Server) handleAwait(w http.ResponseWriter, r *http.Request, ss *session) {
	body, herr := readBody(w, r, "await")
	if herr != nil {
		writeError(w, herr)
		return
	}
	sc := awaitPool.Get().(*awaitScratch)
	defer sc.release()
	err := sc.req.parseJSON(body.b)
	bufPool.Put(body)
	if err != nil {
		writeError(w, badRequest("await: invalid JSON: "+err.Error()))
		return
	}
	if herr := ss.await(r.Context(), sc); herr != nil {
		writeError(w, herr)
		return
	}
	writeWire(w, http.StatusOK, &sc.resp)
}

// submitScratch is what decoding one submit request needs and nothing
// keeps afterwards: what the session retains of req (task names, the
// idempotency key) are strings the decoder allocated, not parts of it.
type submitScratch struct {
	dec decoder
	req SubmitRequest
}

var submitPool = sync.Pool{New: func() any { return new(submitScratch) }}

// release drops the scratch's references to the last request's strings —
// a pooled request must not pin them — and pools it.
func (sc *submitScratch) release() {
	clear(sc.req.Tasks)
	sc.req.Tasks = sc.req.Tasks[:0]
	sc.req.IdempotencyKey = ""
	clear(sc.dec.params)
	submitPool.Put(sc)
}

// awaitScratch is one await's working set: the decoded request, the
// handles it names and the response, which is dead once encoded.
type awaitScratch struct {
	req     AwaitRequest
	handles []*starss.Handle
	resp    AwaitResponse
}

var awaitPool = sync.Pool{New: func() any { return new(awaitScratch) }}

func (sc *awaitScratch) release() {
	sc.req.IDs, sc.req.TimeoutMS = sc.req.IDs[:0], 0
	clear(sc.handles)
	sc.handles = sc.handles[:0]
	clear(sc.resp.Tasks)
	sc.resp.Tasks = sc.resp.Tasks[:0]
	awaitPool.Put(sc)
}

// sessionStats snapshots every live session.
func (s *Server) sessionStats() []SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	per := make([]SessionStats, 0, len(s.sessions))
	for _, ss := range s.sessions {
		per = append(per, ss.stats())
	}
	return per
}

func (s *Server) handleDebug(w http.ResponseWriter, r *http.Request) {
	per := s.sessionStats()
	writeJSON(w, http.StatusOK, DebugInfo{
		UptimeS:    time.Since(s.start).Seconds(),
		Goroutines: runtime.NumGoroutine(),
		Sessions:   len(per),
		Runtime: RuntimeDebug{
			Stats:      s.rt.Stats(),
			InFlight:   s.rt.InFlight(),
			QueueDepth: s.rt.QueueDepth(),
			Window:     s.rt.WindowSize(),
		},
		PerSession: per,
	})
}

// outcomeSamples appends one tally's completed-task counters to dst as
// outcome-labelled samples, each followed by labels.
func outcomeSamples(dst []obs.Sample, c starss.TaskCounts, labels ...obs.Label) []obs.Sample {
	for _, o := range []struct {
		outcome string
		v       uint64
	}{{"executed", c.Executed}, {"failed", c.Failed}, {"skipped", c.Skipped}} {
		dst = append(dst, obs.Sample{
			Labels: append([]obs.Label{{Name: "outcome", Value: o.outcome}}, labels...),
			Value:  float64(o.v),
		})
	}
	return dst
}

// handleMetrics serves GET /metrics in the Prometheus text exposition
// format: the runtime counters /debug reports (window occupancy, queue
// depth, bank contention) plus per-session task outcomes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	st, per := s.rt.Stats(), s.sessionStats()
	var sessionTasks, sessionInFlight []obs.Sample
	for _, ss := range per {
		sl := obs.Label{Name: "session", Value: ss.Session}
		sessionTasks = outcomeSamples(sessionTasks, ss.TaskCounts, sl)
		sessionInFlight = append(sessionInFlight, obs.Sample{Labels: []obs.Label{sl}, Value: float64(ss.InFlight)})
	}

	families := []obs.Metric{
		{Name: "nexuspp_uptime_seconds", Help: "Seconds since the server started.", Type: "gauge",
			Samples: []obs.Sample{{Value: time.Since(s.start).Seconds()}}},
		{Name: "nexuspp_goroutines", Help: "Live goroutines in the process.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(runtime.NumGoroutine())}}},
		{Name: "nexuspp_sessions", Help: "Live sessions.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(len(per))}}},
		{Name: "nexuspp_tasks_submitted_total", Help: "Tasks admitted into the shared runtime.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.Submitted)}}},
		{Name: "nexuspp_tasks_total", Help: "Completed tasks by outcome.", Type: "counter",
			Samples: outcomeSamples(nil, st.TaskCounts)},
		{Name: "nexuspp_hazards_total", Help: "Tasks that waited on at least one dependence.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.Hazards)}}},
		{Name: "nexuspp_tasks_retried_total", Help: "Task attempts re-armed under a retry policy.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(s.retried.Load())}}},
		{Name: "nexuspp_submits_shed_total", Help: "Submits shed because the shared window had no room (503 + Retry-After).", Type: "counter",
			Samples: []obs.Sample{{Value: float64(s.shed.Load())}}},
		{Name: "nexuspp_bank_acquisitions_total", Help: "Dependence-bank lock acquisitions.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.BankAcquisitions)}}},
		{Name: "nexuspp_bank_contended_acquisitions_total", Help: "Bank acquisitions that blocked on another holder.", Type: "counter",
			Samples: []obs.Sample{{Value: float64(st.BankContended)}}},
		{Name: "nexuspp_bank_max_queue_depth", Help: "Deepest kick-off list observed on any bank segment.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(st.BankMaxQueue)}}},
		{Name: "nexuspp_window_occupancy", Help: "In-flight (submitted, unfinished) tasks.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(s.rt.InFlight())}}},
		{Name: "nexuspp_window_size", Help: "Configured in-flight window capacity.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(s.rt.WindowSize())}}},
		{Name: "nexuspp_queue_depth", Help: "Ready tasks queued for a worker.", Type: "gauge",
			Samples: []obs.Sample{{Value: float64(s.rt.QueueDepth())}}},
		{Name: "nexuspp_session_tasks_total", Help: "Per-session completed tasks by outcome.", Type: "counter",
			Samples: sessionTasks},
		{Name: "nexuspp_session_in_flight", Help: "Per-session in-flight tasks.", Type: "gauge",
			Samples: sessionInFlight},
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	_ = obs.WritePrometheus(w, families)
}
