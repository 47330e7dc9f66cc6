package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stsk"
	"stsk/internal/faultinject"
	"stsk/internal/trace"
)

// Server is the HTTP JSON transport over a Registry — stdlib net/http
// only, no dependencies. Routes:
//
//	POST /v1/plans                 register a PlanSpec and build it (409 on conflict)
//	GET  /v1/plans                 list registered plans and their residency
//	PUT  /v1/plans/{name}/values   swap in new matrix values (numeric refactorization)
//	POST /v1/solve                 solve one right-hand side (coalesced onto panels)
//	GET  /healthz                  liveness + drain state
//	GET  /metrics                  Prometheus text exposition
//	GET  /debug/traces             slow-trace ring (per-stage breakdowns)
//
// Admission control surfaces as 429 (coalescer queue full), per-request
// deadlines as 408, and a draining server as 503. Close marks the server
// draining and gracefully drains the registry: queued solves complete,
// new requests bounce.
type Server struct {
	reg       *Registry
	mux       *http.ServeMux
	draining  atomic.Bool
	closeOnce sync.Once
	start     time.Time
}

// NewServer wraps a registry with the HTTP API.
func NewServer(reg *Registry) *Server {
	s := &Server{reg: reg, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /v1/plans", s.handleRegister)
	s.mux.HandleFunc("GET /v1/plans", s.handleList)
	s.mux.HandleFunc("PUT /v1/plans/{name}/values", s.handleUpdateValues)
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	return s
}

// Registry returns the server's registry.
func (s *Server) Registry() *Registry { return s.reg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain marks the server draining without closing the registry:
// new plan and solve requests answer 503 with a Retry-After while
// requests already queued in the coalescers keep completing, and
// /healthz flips to "draining" so load balancers stop routing here. A
// daemon calls this the moment it catches SIGTERM, serves its drain
// grace period, and then calls Close.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// Close drains and stops serving: subsequent plan and solve requests
// answer 503 while in-flight ones (including every request already
// queued in a coalescer) complete. Intended order in a daemon:
// http.Server.Shutdown first (stop accepting connections), then Close.
func (s *Server) Close() {
	s.draining.Store(true)
	s.closeOnce.Do(s.reg.Close)
}

// Request-body caps: a solve body is dominated by the right-hand side
// (~20 chars per float64 in JSON, so 256 MiB covers ~10M rows with slack);
// a plan spec is a few hundred bytes of names and integers.
const (
	maxSolveBody = 256 << 20
	maxPlanBody  = 1 << 20
)

// errorBody is the uniform error envelope. RetryAfterMs mirrors the
// Retry-After header (which only has 1-second resolution) for retriable
// refusals, so clients can back off programmatically.
type errorBody struct {
	Error        string `json:"error"`
	RetryAfterMs int64  `json:"retryAfterMs,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the status line: an unencodable value (a
	// NaN or ±Inf, which JSON cannot carry) must surface as a 500, not a
	// 200 with an empty body. The solve handler marshals its own
	// response, so an overflowed solution is its 422 instead.
	raw, err := json.Marshal(v)
	if err != nil {
		code, raw = http.StatusInternalServerError, []byte(`{"error":"response not representable in JSON (non-finite values?)"}`)
	}
	writeRaw(w, code, raw)
}

// writeRaw writes an encoded JSON body with the given status.
func writeRaw(w http.ResponseWriter, code int, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(raw, '\n'))
}

// writeError renders the error envelope with the given back-off hint
// (0 = none). The Retry-After header rounds the hint up to whole seconds
// (RFC 9110 delay-seconds); the JSON body carries the precise value.
func writeError(w http.ResponseWriter, code int, err error, hint time.Duration) {
	body := errorBody{Error: err.Error()}
	if hint > 0 {
		w.Header().Set("Retry-After", strconv.FormatInt(int64((hint+time.Second-1)/time.Second), 10))
		body.RetryAfterMs = hint.Milliseconds()
	}
	writeJSON(w, code, body)
}

// error writes err with the server's retry hint for it.
func (s *Server) error(w http.ResponseWriter, code int, err error) {
	writeError(w, code, err, s.retryAfter(err))
}

// retryAfter is the client back-off hint for retriable refusals:
// queue-full and shed requests clear in well under a second (round up
// to the 1s header floor); a plan evicted mid-request rebuilds — or
// warm-loads from its snapshot — in milliseconds, so the hint is ten
// retry backoff units; draining and degraded states need the operator —
// or the brownout controller — a few seconds to resolve.
func (s *Server) retryAfter(err error) time.Duration {
	switch {
	case errors.Is(err, ErrPlanEvicted):
		return 10 * retryBackoffUnit
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShed):
		return time.Second
	case errors.Is(err, ErrDraining), errors.Is(err, ErrDegraded):
		return 2 * time.Second
	default:
		return 0
	}
}

// statusFor maps the serving-layer sentinels onto HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownPlan):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrDegraded), errors.Is(err, ErrPlanEvicted):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrPlanExists), errors.Is(err, ErrVersionConflict):
		return http.StatusConflict
	case errors.Is(err, stsk.ErrDimension), errors.Is(err, stsk.ErrSparsityMismatch):
		return http.StatusBadRequest
	case errors.Is(err, stsk.ErrNonFinite):
		// Well-formed input whose factor (an IC(0) of the plan's current
		// values) or solution would carry NaN or ±Inf: nothing a retry
		// can change.
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.error(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var spec PlanSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxPlanBody)).Decode(&spec); err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.reg.Register(spec)
	if err != nil {
		code := statusFor(err)
		if code == http.StatusInternalServerError {
			code = http.StatusBadRequest // bad spec, unknown class, unreadable file
		}
		s.error(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

// UpdateValuesRequest is the PUT /v1/plans/{name}/values body: the new
// value array in the registered matrix's storage order (same sparsity —
// a changed pattern is a 400), plus an optional optimistic-concurrency
// precondition: when IfVersion is non-zero the update fails with 409
// unless the plan is still at exactly that value version.
type UpdateValuesRequest struct {
	Values    []float64 `json:"values"`
	IfVersion uint64    `json:"ifVersion,omitempty"`
}

func (s *Server) handleUpdateValues(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.error(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	var req UpdateValuesRequest
	// A value array is the same order of magnitude as a right-hand side,
	// so it gets the solve-body cap, not the plan-spec one.
	body, err := readBody(w, r, maxSolveBody)
	if err == nil {
		err = decodeFloatBody(body, "values", &req, &req.Values)
	}
	if err != nil {
		s.error(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.reg.UpdateValues(r.PathValue("name"), req.Values, req.IfVersion)
	if err != nil {
		s.error(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// SolveRequest is the /v1/solve body. B is the right-hand side in plan
// order; Upper selects the transposed sweep; Variant selects the factor
// ("" direct, "ic0" incomplete Cholesky); TimeoutMs bounds the request
// end to end (queueing included) on top of the client's own socket
// deadline.
type SolveRequest struct {
	Plan      string    `json:"plan"`
	B         []float64 `json:"b"`
	Upper     bool      `json:"upper,omitempty"`
	Variant   string    `json:"variant,omitempty"`
	TimeoutMs int       `json:"timeoutMs,omitempty"`
}

// SolveResponse carries the solution of one coalesced solve.
type SolveResponse struct {
	X          []float64 `json:"x"`
	Plan       string    `json:"plan"`
	DurationMs float64   `json:"durationMs"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	// One lifecycle trace per solve request, honouring a client-supplied
	// X-STS-Trace-Id and echoing the effective ID back so callers (and the
	// router's hedged fan-out) can correlate logs, /debug/traces entries,
	// and responses.
	tr := trace.New(r.Header.Get("X-STS-Trace-Id"))
	w.Header().Set("X-STS-Trace-Id", tr.ID())
	var planName string
	var reqErr error
	defer func() { s.reg.finishTrace(tr, planName, reqErr) }()
	a0 := trace.Now()
	if s.draining.Load() {
		reqErr = ErrDraining
		s.error(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	if err := faultinject.Fire(faultinject.HTTPSolve); err != nil {
		reqErr = err
		s.error(w, statusFor(err), err)
		return
	}
	// X-STS-Priority is the brownout shedding key: while degraded, requests
	// below the configured threshold bounce with 429 before touching the
	// registry. Absent or malformed headers read as priority 0.
	pri := 0
	if h := r.Header.Get("X-STS-Priority"); h != "" {
		if v, err := strconv.Atoi(h); err == nil {
			pri = v
		}
	}
	if err := s.reg.AdmitPriority(pri); err != nil {
		reqErr = err
		s.error(w, statusFor(err), err)
		return
	}
	body, err := readBody(w, r, maxSolveBody)
	var req SolveRequest
	if err == nil {
		req, err = decodeSolve(body)
	}
	if err != nil {
		reqErr = err
		s.error(w, http.StatusBadRequest, err)
		return
	}
	planName = req.Plan
	ctx := r.Context()
	if req.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, msDuration(float64(req.TimeoutMs)))
		defer cancel()
	}
	ctx = trace.NewContext(ctx, tr)
	tr.Observe(trace.StageAdmission, a0, trace.Now())
	start := time.Now()
	x, err := s.reg.Solve(ctx, req.Plan, req.Variant, req.Upper, req.B)
	if err != nil {
		reqErr = err
		s.error(w, statusFor(err), err)
		return
	}
	w0 := trace.Now()
	raw, err := json.Marshal(SolveResponse{
		X:          x,
		Plan:       req.Plan,
		DurationMs: float64(time.Since(start).Microseconds()) / 1000,
	})
	if err == nil {
		writeRaw(w, http.StatusOK, raw)
	} else {
		// Finite values can still overflow the sweep, and JSON carries no
		// NaN or ±Inf: the solution is refused like a non-finite factor.
		reqErr = fmt.Errorf("%w: the solution overflows float64 on the plan's current values", stsk.ErrNonFinite)
		s.error(w, statusFor(reqErr), reqErr)
	}
	tr.Observe(trace.StageSerialize, w0, trace.Now())
}

// msDuration converts a non-negative millisecond count from a request
// into a Duration, saturating instead of overflowing: a bound beyond
// the Duration range (about 292 years) is no bound at all.
func msDuration(ms float64) time.Duration {
	if ns := ms * float64(time.Millisecond); ns < math.MaxInt64 {
		return time.Duration(ns)
	}
	return math.MaxInt64
}

// healthBody is the /healthz document.
type healthBody struct {
	Status  string  `json:"status"` // "ok", "degraded", or "draining"
	Reason  string  `json:"reason,omitempty"`
	Plans   int     `json:"plans"`
	Loaded  int     `json:"loaded"`
	UptimeS float64 `json:"uptimeS"`
}

// handleHealth reports liveness plus degradation: draining (server told
// to drain, or the registry itself closed) and brownout-degraded both
// answer 503 so load balancers stop routing here, with the tripping
// reason in the body.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status, reason := "ok", ""
	code := http.StatusOK
	bst, why := s.reg.BrownoutState()
	switch {
	case s.draining.Load() || s.reg.Draining() || bst == BrownoutDraining:
		status = "draining"
		code = http.StatusServiceUnavailable
		if !s.draining.Load() {
			reason = why
		}
	case bst == BrownoutDegraded:
		status = "degraded"
		reason = why
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, healthBody{
		Status:  status,
		Reason:  reason,
		Plans:   s.reg.Len(),
		Loaded:  s.reg.Loaded(),
		UptimeS: time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.reg.met.writePrometheus(w, s.reg)
}
