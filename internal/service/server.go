// Package service implements the clusterd HTTP API: a long-running
// simulation service wrapping one shared engine and a tiered result store.
// Clients submit declarative job specs, stream per-job completions as
// server-sent events (backed by Engine.Stream), fetch any result by its
// content key, and read cache/engine statistics — the serve-results and
// transport groundwork for distributed fan-out. The JSON shapes on the
// wire live in internal/api, shared with the typed SDK in package client.
//
//	POST /v1/jobs                  submit {"jobs":[spec...]} or one spec
//	GET  /v1/jobs/{id}             submission status + finished results
//	GET  /v1/jobs/{id}/stream      SSE: one event per completed job, result included
//	GET  /v1/results?key=K         fetch a stored result by content key
//	PUT  /v1/results?key=K         upload a validated result blob (v3)
//	GET  /v1/keys                  page through the store's logical keys (v3)
//	GET  /v1/ring                  coordinator membership view (v3)
//	POST /v1/ring                  CAS one membership transition (v3)
//	GET  /v1/stats                 engine + store counters
//	GET  /metrics                  the same counters, Prometheus text format
//	GET  /healthz                  liveness
//
// Every response carries the protocol version in the api.VersionHeader
// header, and every error — including unknown routes and wrong methods —
// is a JSON api.Error with a stable machine-readable code.
package service

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustersim/fleet/controlplane"
	"clustersim/internal/admission"
	"clustersim/internal/api"
	"clustersim/internal/engine"
	"clustersim/internal/obs"
	"clustersim/internal/sim"
	"clustersim/internal/store"
)

// Server is the clusterd HTTP handler. One server owns one engine (all
// submissions share its caches and worker pool) and one result store.
type Server struct {
	ctx   context.Context
	eng   *engine.Engine
	st    store.Store
	mux   *http.ServeMux
	now   func() time.Time // injectable clock for TTL tests
	token string           // required bearer token; "" disables auth

	mu      sync.Mutex
	subs    map[string]*submission
	retired []*submission // completed submissions, oldest completion first
	retain  int
	ttl     time.Duration
	nextID  int
	swept   int64 // completed submissions expired by the TTL
	// boot is a random per-process nonce in every submission ID
	// ("sub-<boot>-<n>"), so a client reconnecting to a restarted daemon
	// can never attach to a different submission that reuses its old
	// counter value.
	boot string

	// Serving-path counters (see api.ServingStats): sseMarshals counts
	// JSON encodes of job events — exactly one per completed job, however
	// many subscribers replay it; sseFrames/sseBytes count the shared
	// result frames actually written to subscribers; notModified counts
	// result fetches satisfied by an If-None-Match 304 with no store read
	// and no body.
	sseMarshals, sseFrames, sseBytes, notModified atomic.Int64

	// Control-plane counters (v3): resultUploads counts drain/backfill
	// blobs accepted over PUT /v1/results, keyPages counts /v1/keys pages
	// served, ringTransitions/ringConflicts count the coordinator's
	// accepted and epoch-refused proposals.
	resultUploads, keyPages, ringTransitions, ringConflicts atomic.Int64

	// coord is the coordinator-mode membership register (nil on plain
	// workers). coordMu also serializes the epoch-check-then-transition
	// pair in handleRingPost — that atomicity is the whole CAS.
	coordMu sync.Mutex
	coord   *controlplane.Membership

	// httpHist holds per-(route, status code) request-latency
	// histograms, exposed on /metrics and — aggregated per route — in
	// /v1/stats. log is the structured operational logger (see
	// SetLogger); the default discards.
	httpHist *obs.Vec
	log      *slog.Logger

	// adm is the admission controller (nil admits everything; see
	// SetAdmission). Rejected submissions answer 429 with Retry-After.
	adm *admission.Controller

	// sseWriteTimeout bounds each SSE frame write; a subscriber that
	// cannot drain a frame within it is disconnected (counted in
	// sseSlowDisconnects) instead of buffering unboundedly server-side
	// while other subscribers stream on.
	sseWriteTimeout    time.Duration
	sseSlowDisconnects atomic.Int64
}

// defaultRetain bounds how many completed submissions stay queryable: the
// registry of a long-running daemon must not grow with lifetime traffic.
// In-flight submissions are never evicted, and an evicted submission's
// results remain fetchable by key — only its status/stream id expires.
const defaultRetain = 256

// defaultTTL is how long a completed submission stays queryable before
// it expires. The retention count alone caps memory but lets a burst of
// traffic pin stale entries for the daemon's lifetime; the TTL drains
// them under sustained traffic too.
const defaultTTL = time.Hour

// defaultSSEWriteTimeout is the slow-subscriber bound: generous enough
// for a congested-but-live link to drain a frame, small enough that a
// wedged reader can't hold a subscription goroutine (and the kernel
// buffer feeding it) for the submission's lifetime.
const defaultSSEWriteTimeout = 15 * time.Second

// New builds a server. ctx bounds every submission's simulations: cancel
// it to drain the service. st is the store results are fetched from; wire
// the same store into the engine's Options.ResultStore so computed
// results become fetchable.
func New(ctx context.Context, eng *engine.Engine, st store.Store) *Server {
	s := &Server{
		ctx: ctx, eng: eng, st: st, mux: http.NewServeMux(), now: time.Now,
		subs: map[string]*submission{}, retain: defaultRetain, ttl: defaultTTL,
		httpHist:        obs.NewVec(nil),
		log:             slog.New(slog.NewTextHandler(io.Discard, nil)),
		sseWriteTimeout: defaultSSEWriteTimeout,
		boot:            obs.NewTraceID(),
	}
	// Methods are dispatched inside the handlers (not via "GET /path"
	// patterns) so that wrong-method requests get the same JSON error
	// shape as every other failure instead of the mux's bare-text 405.
	// Each route is registered through observed(pattern, ...), which
	// feeds the per-route latency histograms and the access log; the
	// pattern — never the raw path — is the histogram's route label.
	route := func(pattern string, handlers map[string]http.HandlerFunc) {
		s.mux.HandleFunc(pattern, s.observed(pattern, s.methods(handlers)))
	}
	route("/v1/jobs", map[string]http.HandlerFunc{
		http.MethodPost: s.handleSubmit,
	})
	route("/v1/jobs/{id}", map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobStatus,
	})
	route("/v1/jobs/{id}/stream", map[string]http.HandlerFunc{
		http.MethodGet: s.handleJobStream,
	})
	route("/v1/results", map[string]http.HandlerFunc{
		http.MethodGet: s.handleResult,
		http.MethodPut: s.handlePutResult,
	})
	route("/v1/keys", map[string]http.HandlerFunc{
		http.MethodGet: s.handleKeys,
	})
	route("/v1/ring", map[string]http.HandlerFunc{
		http.MethodGet:  s.handleRingGet,
		http.MethodPost: s.handleRingPost,
	})
	route("/v1/trace/{id}", map[string]http.HandlerFunc{
		http.MethodGet: s.handleTrace,
	})
	route("/v1/stats", map[string]http.HandlerFunc{
		http.MethodGet: s.handleStats,
	})
	route("/metrics", map[string]http.HandlerFunc{
		http.MethodGet: s.handleMetrics,
	})
	route("/healthz", map[string]http.HandlerFunc{
		http.MethodGet: func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		},
	})
	// Everything else is a JSON 404, not the mux's text one.
	s.mux.HandleFunc("/", s.observed("other", func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "no such route %s", r.URL.Path)
	}))
	return s
}

// ServeHTTP implements http.Handler. Every response, success or error,
// advertises the wire-protocol version.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(api.VersionHeader, strconv.Itoa(api.Version))
	if !s.authorized(r) {
		w.Header().Set("WWW-Authenticate", `Bearer realm="clusterd"`)
		httpError(w, http.StatusUnauthorized, api.CodeUnauthorized,
			"missing or invalid bearer token")
		return
	}
	s.mux.ServeHTTP(w, r)
}

// SetToken requires every request (except GET /healthz, so liveness
// probes keep working without credentials) to carry "Authorization:
// Bearer <token>". An empty token disables auth. Call before serving
// traffic.
func (s *Server) SetToken(token string) { s.token = token }

// SetAdmission installs per-tenant admission control on POST /v1/jobs:
// batches beyond a tenant's rate or in-flight quota answer 429 with a
// Retry-After hint instead of entering the engine. Nil (the default)
// admits everything. Call before serving traffic.
func (s *Server) SetAdmission(c *admission.Controller) { s.adm = c }

// tenantOf derives the admission identity of a request. With auth
// enabled the bearer token IS the identity and the client-supplied
// tenant header is ignored — honoring it would let any caller mint a
// fresh budget per request and bypass admission entirely. Without
// auth, the header splits budgets between callers (e.g. a proxy
// multiplexing users), a voluntary Authorization header still counts
// as an identity, and absent both, all requests share one anonymous
// bucket. The identity only keys admission accounting — it is never
// logged or echoed back.
func (s *Server) tenantOf(r *http.Request) string {
	if s.token != "" {
		// authorized() already verified this header, so it is the
		// configured credential, not attacker-chosen.
		return r.Header.Get("Authorization")
	}
	if t := r.Header.Get(api.TenantHeader); t != "" {
		return t
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		return auth
	}
	return "anon"
}

// authorized checks the request's bearer token against the configured
// one in constant time. /healthz stays open: it reveals nothing beyond
// liveness, and orchestrator probes cannot attach credentials.
func (s *Server) authorized(r *http.Request) bool {
	if s.token == "" || r.URL.Path == "/healthz" {
		return true
	}
	auth := r.Header.Get("Authorization")
	const scheme = "Bearer "
	if len(auth) < len(scheme) || !strings.EqualFold(auth[:len(scheme)], scheme) {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(auth[len(scheme):]), []byte(s.token)) == 1
}

// methods dispatches by HTTP method, answering anything unlisted with a
// JSON 405 that names the allowed methods. HEAD is served by the GET
// handler (net/http discards the body), matching ServeMux's "GET /path"
// semantics so health probes issuing HEAD keep working.
func (s *Server) methods(handlers map[string]http.HandlerFunc) http.HandlerFunc {
	allowed := make([]string, 0, len(handlers)+1)
	for m := range handlers {
		allowed = append(allowed, m)
	}
	if _, ok := handlers[http.MethodGet]; ok {
		allowed = append(allowed, http.MethodHead)
	}
	allow := strings.Join(allowed, ", ")
	return func(w http.ResponseWriter, r *http.Request) {
		method := r.Method
		if method == http.MethodHead {
			method = http.MethodGet
		}
		if h, ok := handlers[method]; ok {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		httpError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
			"method %s not allowed on %s (allowed: %s)", r.Method, r.URL.Path, allow)
	}
}

// SetRetention overrides how many completed submissions stay queryable
// (n < 1 keeps only in-flight ones). Call before serving traffic.
func (s *Server) SetRetention(n int) {
	s.mu.Lock()
	s.retain = n
	s.mu.Unlock()
}

// SetTTL overrides how long a completed submission stays queryable
// (d <= 0 disables expiry; the retention count still applies). Expiry
// happens on demand, at the next submission completion or lookup, so no
// background goroutine paces it. Call before serving traffic.
func (s *Server) SetTTL(d time.Duration) {
	s.mu.Lock()
	s.ttl = d
	s.mu.Unlock()
}

// retire marks a submission complete and evicts the oldest completed
// submissions beyond the retention bound or older than the TTL.
func (s *Server) retire(sub *submission) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sub.completedAt = s.now()
	s.retired = append(s.retired, sub)
	for len(s.retired) > max(s.retain, 0) {
		s.evictOldest()
	}
	s.expire()
}

// evictOldest drops the oldest completed submission. The caller holds
// s.mu.
func (s *Server) evictOldest() {
	delete(s.subs, s.retired[0].id)
	s.retired[0] = nil // the backing array must not pin its frames
	s.retired = s.retired[1:]
}

// expire drops completed submissions whose completion is older than the
// TTL, counting each in swept. The retired list is in completion order,
// so the expired ones are a prefix of it; in-flight submissions are not
// on it and never expire. The caller holds s.mu.
func (s *Server) expire() {
	if s.ttl <= 0 {
		return
	}
	cutoff := s.now().Add(-s.ttl)
	for len(s.retired) > 0 && s.retired[0].completedAt.Before(cutoff) {
		s.evictOldest()
		s.swept++
	}
}

// submission tracks one POST /v1/jobs batch as its jobs complete. Each
// completed job is held once, as its SSE frame: the stream replays the
// frames as they are, and the rarely polled status route decodes them.
type submission struct {
	id    string
	total int // jobs in the batch

	// completedAt is set (under the server mutex) when the submission
	// retires; TTL expiry keys off it.
	completedAt time.Time

	mu      sync.Mutex
	frames  [][]byte // pre-rendered SSE result frames, in completion order
	done    bool
	changed chan struct{} // closed and replaced on every state change
}

// The SSE result frame around one JSON-encoded api.JobEvent.
const (
	framePrefix = "event: result\ndata: "
	frameSuffix = "\n\n"
)

// snapshot returns the frames from index from on, whether the submission
// has finished, and a channel closed on the next state change. Frames are
// immutable once appended, so the returned slices may be read without
// holding the lock.
func (sub *submission) snapshot(from int) ([][]byte, bool, <-chan struct{}) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	frames := sub.frames[min(from, len(sub.frames)):]
	return frames, sub.done, sub.changed
}

// append records one result frame, or with a nil frame marks the
// submission done, and wakes every waiting subscriber.
func (sub *submission) append(frame []byte) {
	sub.mu.Lock()
	if frame != nil {
		sub.frames = append(sub.frames, frame)
	} else {
		sub.done = true
	}
	close(sub.changed)
	sub.changed = make(chan struct{})
	sub.mu.Unlock()
}

// appendResult records one completed job on the submission as its SSE
// frame — marshaled exactly once, here, at append time — for every
// current and future subscriber to share. A successful job's frame
// carries the encoded result, so subscribers need not fetch it by key.
func (s *Server) appendResult(sub *submission, jr engine.JobResult, key string) {
	ev := jobEvent(jr, key)
	data, err := json.Marshal(ev)
	if err != nil {
		// JobEvent is plain data; Marshal cannot fail on it. Keep the
		// stream well-formed regardless.
		data = []byte("{}")
	}
	s.sseMarshals.Add(1)
	frame := make([]byte, 0, len(framePrefix)+len(data)+len(frameSuffix))
	frame = append(frame, framePrefix...)
	frame = append(frame, data...)
	frame = append(frame, frameSuffix...)
	sub.append(frame)
}

// frameEvent decodes the api.JobEvent a result frame carries.
func frameEvent(frame []byte) (api.JobEvent, error) {
	var ev api.JobEvent
	data := frame[len(framePrefix) : len(frame)-len(frameSuffix)]
	err := json.Unmarshal(data, &ev)
	return ev, err
}

// httpError writes the uniform JSON error body: a stable machine-readable
// code plus a human-readable message. Every error path in the package —
// including route and method misses — funnels through here.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(api.Error{Code: code, Message: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// submitBody is the accepted request shape: a batch, or a bare spec.
type submitBody struct {
	Jobs     []engine.JobSpec `json:"jobs"`
	Priority string           `json:"priority,omitempty"`
	engine.JobSpec
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "decoding request: %v", err)
		return
	}
	specs := body.Jobs
	if len(specs) == 0 {
		if body.Simpoint == "" {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "no jobs: send {\"jobs\":[...]} or a single spec")
			return
		}
		specs = []engine.JobSpec{body.JobSpec}
	}

	lane, ok := engine.ParseLane(body.Priority)
	if !ok {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest,
			"unknown priority %q (want interactive or bulk)", body.Priority)
		return
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}

	jobs := make([]engine.Job, len(specs))
	keys := make([]string, len(specs))
	for i, spec := range specs {
		job, err := sim.JobFromSpec(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, api.CodeBadRequest, "job %d: %v", i, err)
			return
		}
		jobs[i] = job
		keys[i], _ = engine.ResultKey(job)
	}

	// Admission is decided after validation (a malformed batch should
	// answer bad_request, not burn budget) but before anything enters
	// the engine: a rejected batch costs the server nothing downstream.
	tenant := s.tenantOf(r)
	if s.adm != nil {
		if d := s.adm.Admit(tenant, len(jobs)); !d.OK {
			code := api.CodeRateLimited
			if d.Reason == admission.ReasonQuotaExceeded {
				code = api.CodeQuotaExceeded
			}
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(d.RetryAfter)))
			s.log.Debug("submission rejected", "reason", d.Reason,
				"jobs", len(jobs), "retry_after", d.RetryAfter)
			httpError(w, http.StatusTooManyRequests, code,
				"%s: retry after %v", d.Reason, d.RetryAfter)
			return
		}
	}

	// Every job gets a trace ID at submission: the caller may seed the
	// base via the trace header (so a client's IDs and the server's
	// agree), otherwise one is minted. The engine traces job i as
	// obs.JobTraceID(base, i), and the ack lists the same IDs.
	base := r.Header.Get(api.TraceHeader)
	if !obs.ValidTraceID(base) {
		base = obs.NewTraceID()
	}
	tids := make([]string, len(specs))
	for i := range tids {
		tids[i] = obs.JobTraceID(base, i)
	}

	s.mu.Lock()
	s.nextID++
	sub := &submission{
		id:      fmt.Sprintf("sub-%s-%d", s.boot, s.nextID),
		total:   len(specs),
		changed: make(chan struct{}),
	}
	s.subs[sub.id] = sub
	s.mu.Unlock()
	s.log.Debug("submission accepted", "id", sub.id, "jobs", len(specs), "trace_base", base)

	// The batch context carries the scheduling lane, the trace-ID base
	// and, when the request declared a deadline, expires at it: queued
	// jobs past the deadline are shed by the engine before simulating,
	// and running ones are canceled through the pipeline's cancel hook.
	runCtx := obs.WithTraceID(engine.WithLane(s.ctx, lane), base)
	cancel := context.CancelFunc(func() {})
	if deadline > 0 {
		runCtx, cancel = context.WithTimeout(runCtx, deadline)
	}

	go func() {
		defer cancel()
		start := time.Now()
		for jr := range s.eng.Stream(runCtx, jobs) {
			s.appendResult(sub, jr, keys[jr.Index])
			if s.adm != nil {
				// Quota is in-flight work: each job returns its slot as it
				// finishes, not when the whole batch does.
				s.adm.Release(tenant, 1)
			}
		}
		sub.append(nil)
		s.retire(sub)
		s.log.Debug("submission done", "id", sub.id, "jobs", len(jobs),
			"dur_ms", time.Since(start).Milliseconds())
	}()

	writeJSON(w, http.StatusAccepted, api.SubmitResponse{
		ID: sub.id, Keys: keys, Total: len(specs), TraceIDs: tids,
	})
}

// parseDeadline reads the request's optional deadline header: a
// positive integer of milliseconds from receipt. Zero means none.
func parseDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(api.DeadlineHeader)
	if h == "" {
		return 0, nil
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("malformed %s header %q (want a positive integer of milliseconds)",
			api.DeadlineHeader, h)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// retryAfterSeconds renders a retry hint as the Retry-After header's
// integer seconds, rounding up so the client never retries early, and
// never below 1 — a zero would invite an immediate retry storm.
func retryAfterSeconds(d time.Duration) int {
	s := int(math.Ceil(d.Seconds()))
	if s < 1 {
		s = 1
	}
	return s
}

// errorCode classifies a run error machine-readably where a stable
// category exists; deterministic simulation failures return "".
func errorCode(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return api.CodeDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return ""
}

func jobEvent(jr engine.JobResult, key string) api.JobEvent {
	ev := api.JobEvent{
		Index:    jr.Index,
		Simpoint: jr.Job.Simpoint.Name,
		Setup:    jr.Job.Setup.Label,
		Key:      key,
	}
	err := jr.Result.Err
	if err == nil {
		// Wire jobs never track histograms, so a successful result always
		// encodes; should one not, the job is reported failed rather than
		// streamed as a success without its result.
		ev.Result, err = engine.EncodeResult(jr.Result)
	}
	if err != nil {
		ev.Error = err.Error()
		ev.Code = errorCode(err)
		return ev
	}
	m := jr.Result.Metrics
	ev.IPC = m.IPC()
	ev.Cycles = m.Cycles
	ev.Uops = m.Uops
	ev.Copies = m.Copies
	return ev
}

// lookup returns a queryable submission, first expiring those past the
// TTL, or nil.
func (s *Server) lookup(id string) *submission {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expire()
	return s.subs[id]
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	sub := s.lookup(r.PathValue("id"))
	if sub == nil {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown submission %q", r.PathValue("id"))
		return
	}
	frames, done, _ := sub.snapshot(0)
	events := make([]api.JobEvent, len(frames))
	for i, frame := range frames {
		ev, err := frameEvent(frame)
		if err != nil {
			httpError(w, http.StatusInternalServerError, api.CodeInternal, "decoding job event %d: %v", i, err)
			return
		}
		events[i] = ev
	}
	writeJSON(w, http.StatusOK, api.StatusResponse{
		ID: sub.id, Total: sub.total, Completed: len(events), Done: done, Results: events,
	})
}

// handleJobStream replays a submission's completed jobs and follows it
// live as server-sent events: one "result" event per job, then "done".
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	sub := s.lookup(r.PathValue("id"))
	if sub == nil {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "unknown submission %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Every write races the subscriber's ability to drain it: a frame
	// that cannot be flushed within the write timeout marks the
	// subscriber stalled and the subscription ends. Without the bound, a
	// wedged reader would park this goroutine in w.Write forever while
	// the submission (whose frames it shares with every healthy
	// subscriber) kept growing.
	ctrl := http.NewResponseController(w)
	write := func(frame []byte) bool {
		ctrl.SetWriteDeadline(time.Now().Add(s.sseWriteTimeout))
		if _, err := w.Write(frame); err != nil {
			s.sseSlowDisconnects.Add(1)
			s.log.Debug("sse subscriber dropped", "id", sub.id, "err", err)
			return false
		}
		return true
	}

	sent := 0
	for {
		frames, done, changed := sub.snapshot(sent)
		for _, frame := range frames {
			// Frames were encoded once at append time; every subscriber
			// writes the same shared bytes.
			if !write(frame) {
				return
			}
			s.sseFrames.Add(1)
			s.sseBytes.Add(int64(len(frame)))
			sent++
		}
		if len(frames) > 0 {
			flusher.Flush()
		}
		if done {
			if write(fmt.Appendf(nil, "event: done\ndata: {\"completed\":%d}\n\n", sent)) {
				flusher.Flush()
			}
			return
		}
		select {
		case <-changed:
		case <-r.Context().Done():
			return
		case <-s.ctx.Done():
			return
		}
	}
}

// etagMatch reports whether an If-None-Match header value matches the
// representation's entity tag: "*", or any member of the comma-separated
// list equal to the tag (weak comparison — a W/ prefix on a member is
// ignored, which is safe here because a content-addressed representation
// never changes byte-wise under its key).
func etagMatch(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key, err := url.QueryUnescape(r.URL.Query().Get("key"))
	if err != nil || key == "" {
		httpError(w, http.StatusBadRequest, api.CodeBadRequest, "missing or malformed ?key=")
		return
	}
	// Results are content-addressed: the bytes under a key never change,
	// so the key's address is a permanent strong ETag. A warm client that
	// already holds the result sends it back as If-None-Match and the
	// server answers 304 without touching the store or encoding a body.
	etag := `"` + store.Addr(key) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	blob, ok := s.st.Get(key)
	if !ok {
		httpError(w, http.StatusNotFound, api.CodeNotFound, "no result stored under key %q", key)
		return
	}
	if r.URL.Query().Get("raw") != "" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(blob)
		return
	}
	res, err := engine.DecodeResult(blob)
	if err != nil {
		httpError(w, http.StatusInternalServerError, api.CodeInternal, "stored blob undecodable: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, api.ResultResponse{
		Key:        key,
		Simpoint:   res.Simpoint.Name,
		Bench:      res.Simpoint.Bench,
		Setup:      res.Setup,
		IPC:        res.Metrics.IPC(),
		Cycles:     res.Metrics.Cycles,
		Uops:       res.Metrics.Uops,
		Copies:     res.Metrics.Copies,
		AllocStall: res.Metrics.AllocStallCycles,
		Imbalance:  res.Metrics.WorkloadImbalance(),
	})
}

// servingStats snapshots the request-path counters.
func (s *Server) servingStats() api.ServingStats {
	return api.ServingStats{
		SSEMarshals:        s.sseMarshals.Load(),
		SSEFrames:          s.sseFrames.Load(),
		SSEBytes:           s.sseBytes.Load(),
		SSESlowDisconnects: s.sseSlowDisconnects.Load(),
		NotModified:        s.notModified.Load(),
		ResultUploads:      s.resultUploads.Load(),
		KeyPages:           s.keyPages.Load(),
		RingEpoch:          s.ringEpoch(),
		RingTransitions:    s.ringTransitions.Load(),
		RingConflicts:      s.ringConflicts.Load(),
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := api.StatsResponse{
		Engine: s.eng.Stats(), Store: s.st.Stats(), Serving: s.servingStats(),
		Routes: s.routeHistograms(), Stages: s.stageHistograms(),
	}
	if tiered, ok := s.st.(*store.Tiered); ok {
		fast, slow := tiered.Layers()
		resp.Memory, resp.Disk = &fast, &slow
	}
	if s.adm != nil {
		a := s.adm.Stats()
		resp.Admission = &api.AdmissionStats{
			Admitted: a.Admitted, RejectedRate: a.RejectedRate,
			RejectedQuota: a.RejectedQuota, InFlight: a.InFlight, Tenants: a.Tenants,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
