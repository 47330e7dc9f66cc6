// Package serve turns the stsk library into a long-running
// solve-as-a-service subsystem: a concurrent plan registry that builds
// and caches Plans with their persistent Solvers behind an LRU byte budget,
// an adaptive micro-batching coalescer that packs concurrent single-RHS
// requests onto the blocked panel kernels, and an HTTP JSON transport
// (see Server) with Prometheus-text metrics — the traffic shape the
// STS-k paper's amortisation argument was built for, as a daemon
// (cmd/stsserve).
package serve

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"stsk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/trace"
)

// Variant names accepted by Solve: the empty string solves the plan's own
// triangular factor; VariantIC0 lazily computes the zero-fill incomplete
// Cholesky factor of the plan's symmetric matrix and solves that — the
// preconditioner sweeps of the paper's motivating PCG workload.
const (
	VariantDirect = ""
	VariantIC0    = "ic0"
)

// ErrPlanExists reports a Register whose name is already taken by a
// different spec (HTTP 409). Re-registering the identical spec is
// idempotent and succeeds.
var ErrPlanExists = errors.New("serve: plan already registered with a different spec")

// ErrVersionConflict reports a conditional UpdateValues whose ifVersion
// no longer matches the plan's current value version — another update
// landed first (HTTP 409, the optimistic-concurrency contract).
var ErrVersionConflict = errors.New("serve: plan version conflict")

// ErrPlanEvicted reports a request that lost the LRU eviction race on
// every retry attempt: the plan was evicted between lookup and enqueue,
// repeatedly, under pathological budget churn. Unlike ErrDraining this
// is not an operator condition — the plan rebuilds (or warm-loads from
// a snapshot) in milliseconds on a healthy server, so clients should
// retry after milliseconds, not seconds.
var ErrPlanEvicted = errors.New("serve: plan evicted mid-request")

// PlanSpec names a matrix source and the ordering configuration the
// registry builds for it. Exactly one of Class, Suite and File must be
// set; the zero values of the remaining fields select the library
// defaults (method STS-3). Every plan is served by a Solver with the
// library's defaults: GOMAXPROCS workers and panels of width 8.
type PlanSpec struct {
	Name string `json:"name"`

	// Matrix source: a synthetic class (stsk.Generate), a paper Table 1
	// suite id (stsk.GenerateSuite), or a Matrix Market file path
	// (stsk.ReadMatrixMarketFile).
	Class string `json:"class,omitempty"`
	Suite string `json:"suite,omitempty"`
	File  string `json:"file,omitempty"`

	// N is the target row count for generated sources (default 20000).
	N int `json:"n,omitempty"`

	// Method is the ordering scheme: csr-ls, csr-col, csr-3-ls, sts3
	// (default sts3).
	Method string `json:"method,omitempty"`

	// RowsPerSuper tunes the super-row size (stsk.WithRowsPerSuper).
	RowsPerSuper int `json:"rowsPerSuper,omitempty"`
}

// validate checks the spec shape without touching any matrix source.
func (s PlanSpec) validate() error {
	if s.Name == "" {
		return errors.New("serve: plan spec needs a name")
	}
	sources := 0
	for _, src := range []string{s.Class, s.Suite, s.File} {
		if src != "" {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("serve: plan %q needs exactly one of class, suite, file", s.Name)
	}
	if s.Method != "" {
		if _, err := stsk.ParseMethod(s.Method); err != nil {
			return err
		}
	}
	return nil
}

// loadMatrix obtains the spec's matrix.
func (s PlanSpec) loadMatrix() (*stsk.Matrix, error) {
	n := s.N
	if n <= 0 {
		n = 20000
	}
	switch {
	case s.Class != "":
		return stsk.Generate(s.Class, n)
	case s.Suite != "":
		return stsk.GenerateSuite(s.Suite, n)
	default:
		return stsk.ReadMatrixMarketFile(s.File)
	}
}

// method resolves the spec's ordering scheme.
func (s PlanSpec) method() stsk.Method {
	if s.Method == "" {
		return stsk.STS3
	}
	m, _ := stsk.ParseMethod(s.Method) // validated at registration
	return m
}

// Config tunes a Registry. Zero values select the defaults noted on each
// field.
type Config struct {
	// BudgetBytes caps the estimated bytes of resident built plans and
	// IC(0) factors; the least-recently-used one is evicted (coalescers
	// drained, Solver closed, memory released to the GC) when the budget
	// is exceeded. A single plan and its factor larger than the budget
	// are still admitted — the budget then holds nothing else. Default
	// 1 GiB.
	BudgetBytes int64

	// QueueCap bounds each coalescer's request queue; a full queue
	// rejects with ErrQueueFull (HTTP 429). Default 256.
	QueueCap int

	// SnapshotDir, when non-empty, enables plan snapshot persistence:
	// every built plan is serialized there write-behind (on build and on
	// UpdateValues), an acquire miss warm-loads the snapshot instead of
	// re-running the ordering pipeline, and WarmStart pre-populates the
	// registry from the directory at boot. Empty disables persistence.
	SnapshotDir string

	// TraceRing bounds the slow-trace ring buffer behind /debug/traces
	// (default 256 finished traces; the oldest is evicted).
	TraceRing int

	// TraceSlow is the ring's admission threshold: only traces at least
	// this slow end to end are retained for /debug/traces. Zero admits
	// every finished trace (the query-time thresholdMs parameter still
	// filters). Per-stage histograms observe every trace regardless.
	TraceSlow time.Duration
}

func (c Config) withDefaults() Config {
	if c.BudgetBytes <= 0 {
		c.BudgetBytes = 1 << 30
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 256
	}
	if c.TraceRing <= 0 {
		c.TraceRing = 256
	}
	return c
}

// state is one built, servable triangular system — a plan or its IC(0)
// factor: a Plan, its persistent Solver, and the pair of
// coalescers (forward and backward sweeps) multiplexing requests onto
// it. lastUse is the LRU stamp, maintained under the registry mutex.
type state struct {
	plan         *stsk.Plan
	solver       *stsk.Solver
	lower, upper *coalescer
	bytes        int64
	lastUse      int64
}

// close drains both coalescers (queued requests still get solved) and
// then closes the solver — the safe eviction order: no panel is ever
// handed to a closed solver, and once close returns the only thing
// keeping the plan's memory alive is the garbage collector's next sweep.
func (st *state) close() {
	st.lower.close()
	st.upper.close()
	st.solver.Close()
}

// Registry is the concurrent plan cache at the heart of the serving
// subsystem. Specs are registered by name; the built artifacts (Plan,
// persistent Solver, coalescers, lazy IC(0) factor) are cached behind an LRU
// byte budget. Eviction only forgets the built state — the spec stays
// registered, and the next request transparently rebuilds. All methods
// are safe for concurrent use.
type Registry struct {
	cfg Config
	met *Metrics

	mu      sync.Mutex
	entries map[string]*entry
	used    int64
	clock   int64
	closed  bool

	// updMu serialises UpdateValues calls so the version check, the
	// refactorization, and the version bump are one atomic step from the
	// client's point of view; solves never take it.
	updMu sync.Mutex

	// shutdowns tracks teardown goroutines (dropLocked) and write-behind
	// snapshot writers so Close can honor its "every dispatcher has
	// exited" contract.
	shutdowns sync.WaitGroup

	// brown is the degradation state machine.
	brown *brownout

	// ring holds finished slow traces for /debug/traces.
	ring *trace.Ring
}

// entry is one registered spec, or the IC(0) factor derived from it
// (ic0), plus its cached built state. st and building are guarded by
// Registry.mu; building is non-nil while one goroutine runs the
// expensive build, and other requests wait on it instead of duplicating
// the work. version and vals live here rather than on the state so
// value updates survive eviction: the next rebuild reapplies vals via
// Plan.Refactor before the state goes live.
type entry struct {
	spec     PlanSpec
	st       *state
	building chan struct{}
	// version is the value version: 1 at registration, bumped by
	// UpdateValues. On a factor entry it is the plan's value version the
	// resident factor was derived from; acquire re-derives when they
	// differ.
	version uint64
	vals    []float64 // latest updated values (immutable copy), nil = spec's own
	ic0     *entry    // the derived IC(0) factor entry; nil until first requested

	// snapMu serialises this entry's write-behind snapshot writers so the
	// on-disk file always converges to the latest (state, version) pair.
	snapMu sync.Mutex
}

// NewRegistry builds an empty registry and starts its brownout
// controller.
func NewRegistry(cfg Config) *Registry {
	r := &Registry{
		cfg:     cfg.withDefaults(),
		met:     &Metrics{},
		entries: make(map[string]*entry),
	}
	r.ring = trace.NewRing(r.cfg.TraceRing)
	r.brown = newBrownout(r)
	return r
}

// TraceRing exposes the slow-trace ring buffer — the store behind
// GET /debug/traces.
func (r *Registry) TraceRing() *trace.Ring { return r.ring }

// finishTrace closes a trace started by trace.New: the finished record
// feeds the per-stage latency histograms and, when at least TraceSlow
// end to end, the /debug/traces ring.
func (r *Registry) finishTrace(tr *trace.Trace, plan string, err error) {
	rec := tr.Finish(plan, outcomeLabel(err))
	r.met.observeTrace(rec, err == nil)
	if rec.Total >= r.cfg.TraceSlow {
		r.ring.Add(rec)
	}
	tr.Release()
}

// countOutcome adds one finished Registry.Solve call to the outcome
// counters, classified as its trace record is (outcomeLabel); took is
// observed as its latency when it solved.
func (m *Metrics) countOutcome(err error, took time.Duration) {
	switch outcomeLabel(err) {
	case "ok":
		m.Solved.Add(1)
		m.ObserveLatency(took)
	case "cancelled":
		m.Cancelled.Add(1)
	case "rejected":
		m.Rejected.Add(1)
	case "shed", "degraded":
		// Intentional brownout load shedding, not a malfunction: counted
		// under its own metric so failure-rate alarms stay quiet while the
		// controller is deliberately refusing work.
		m.Degraded.Add(1)
	case "panic":
		// A kernel panic contained at an engine job boundary: failed,
		// and counted separately so operators can alarm on it.
		m.PanicsRecovered.Add(1)
		m.Failed.Add(1)
	default:
		m.Failed.Add(1)
	}
}

// outcomeLabel classifies a solve error, for trace records and the
// outcome counters (countOutcome).
func outcomeLabel(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "cancelled"
	case errors.Is(err, ErrQueueFull):
		return "rejected"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrDegraded):
		return "degraded"
	case errors.Is(err, panicsafe.ErrInternal):
		return "panic"
	default:
		return "error"
	}
}

// BrownoutState reports the degradation state and, when degraded, the
// reason that tripped the controller. A closed registry is draining no
// matter what the controller last said.
func (r *Registry) BrownoutState() (BrownoutState, string) {
	r.mu.Lock()
	closed := r.closed
	r.mu.Unlock()
	if closed {
		return BrownoutDraining, "registry closed"
	}
	return r.brown.State()
}

// Draining reports whether the registry has been closed.
func (r *Registry) Draining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// AdmitPriority applies brownout load shedding: while degraded, a
// request with priority below shedBelowPriority is refused with ErrShed
// (and counted). Healthy and draining registries admit everything —
// draining refuses later with ErrDraining anyway.
func (r *Registry) AdmitPriority(pri int) error {
	if st, _ := r.brown.State(); st == BrownoutDegraded && pri < shedBelowPriority {
		r.met.Shed.Add(1)
		return fmt.Errorf("%w: priority %d below threshold %d", ErrShed, pri, shedBelowPriority)
	}
	return nil
}

// residentLocked (registry mutex held) yields every entry with a
// resident state — plans and IC(0) factors alike — with the plan entry
// it belongs to.
func (r *Registry) residentLocked(yield func(plan, e *entry) bool) {
	for _, p := range r.entries {
		for _, e := range [2]*entry{p, p.ic0} {
			if e != nil && e.st != nil && !yield(p, e) {
				return
			}
		}
	}
}

// queueStats sums queue depth and capacity across every live coalescer
// — the brownout controller's pressure gauge.
func (r *Registry) queueStats() (depth, capacity int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.residentLocked {
		depth += e.st.lower.depth() + e.st.upper.depth()
		capacity += 2 * r.cfg.QueueCap
	}
	return depth, capacity
}

// Metrics returns the registry's shared instrumentation.
func (r *Registry) Metrics() *Metrics { return r.met }

// PlanInfo describes one registered plan for the listing and
// registration APIs.
type PlanInfo struct {
	Spec    PlanSpec `json:"spec"`
	Loaded  bool     `json:"loaded"`
	Version uint64   `json:"version,omitempty"` // value version; bumped by UpdateValues
	N       int      `json:"n,omitempty"`
	NNZ     int64    `json:"nnz,omitempty"`
	Packs   int      `json:"packs,omitempty"`
	Bytes   int64    `json:"bytes,omitempty"` // plan plus resident IC(0) factor
	IC0     bool     `json:"ic0,omitempty"`   // IC(0) factor of the current version resident
}

// Register stores a spec and eagerly builds its plan, so registration
// reports build errors (bad file, unknown class) and the plan's
// statistics synchronously. Registering an identical spec again is
// idempotent; a name collision with a different spec fails with
// ErrPlanExists.
func (r *Registry) Register(spec PlanSpec) (PlanInfo, error) {
	if err := spec.validate(); err != nil {
		return PlanInfo{}, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return PlanInfo{}, ErrDraining
	}
	inserted := false
	if e, ok := r.entries[spec.Name]; ok && e.spec != spec {
		r.mu.Unlock()
		return PlanInfo{}, fmt.Errorf("%w: %q", ErrPlanExists, spec.Name)
	} else if !ok {
		r.entries[spec.Name] = &entry{spec: spec, version: 1}
		inserted = true
	}
	r.mu.Unlock()
	if _, err := r.acquire(spec.Name, VariantDirect); err != nil {
		if inserted {
			// A spec that never built (bad class, unreadable file) does not
			// stay registered — the name is free for a corrected retry.
			r.mu.Lock()
			if e, ok := r.entries[spec.Name]; ok && e.spec == spec && e.st == nil && e.building == nil && e.ic0 == nil {
				delete(r.entries, spec.Name)
			}
			r.mu.Unlock()
		}
		return PlanInfo{}, err
	}
	infos := r.list(spec.Name)
	if len(infos) == 0 {
		return PlanInfo{}, ErrDraining // closed between build and listing
	}
	return infos[0], nil
}

// List describes every registered plan, built or not.
func (r *Registry) List() []PlanInfo { return r.list("") }

func (r *Registry) list(only string) []PlanInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []PlanInfo
	for name, e := range r.entries {
		if only != "" && name != only {
			continue
		}
		info := PlanInfo{Spec: e.spec, Version: e.version}
		if st := e.st; st != nil {
			stats := st.plan.Stats()
			info.Loaded = true
			info.N = st.plan.N()
			info.NNZ = stats.NNZ
			info.Packs = st.plan.NumPacks()
			info.Bytes = st.bytes
			if f := e.ic0; f != nil && f.st != nil {
				info.Bytes += f.st.bytes
				info.IC0 = f.version == e.version
			}
		}
		out = append(out, info)
	}
	return out
}

// Len reports the number of registered plans.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Loaded reports the number of plans currently built and resident.
func (r *Registry) Loaded() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if e.st != nil {
			n++
		}
	}
	return n
}

// BytesUsed reports the estimated bytes of resident built plans.
func (r *Registry) BytesUsed() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// QueueDepth reports the requests currently queued across every resident
// coalescer — the backpressure gauge exported at /metrics.
func (r *Registry) QueueDepth() int {
	depth, _ := r.queueStats()
	return depth
}

// Solve routes one right-hand side through the named plan's coalescer
// and returns the solution (in plan order), bitwise identical to
// Plan.Solve on the same system. variant selects the factor (VariantIC0
// builds the incomplete-Cholesky factor lazily on first use, and again
// after each value update); upper selects the transposed sweep
// L′ᵀx = b. The context is honored end-to-end: queueing, coalescing, and
// dispatch.
//
// Transient refusals are retried, up to retryAttempts attempts in all:
// a plan evicted between lookup and enqueue (the race window is a few
// instructions wide) is transparently rebuilt, and a full queue is
// retried after a backoff the request's deadline can afford.
func (r *Registry) Solve(ctx context.Context, name, variant string, upper bool, b []float64) ([]float64, error) {
	r.met.Requests.Add(1)
	// A caller below the HTTP layer (benchmarks, embedders) arrives with
	// no trace in its context; start and finish one here so direct Solve
	// traffic still feeds the stage histograms and the slow-trace ring.
	// The HTTP layer's traces pass through untouched — the server owns
	// their admission/serialize spans and their finish.
	var owned *trace.Trace
	if trace.FromContext(ctx) == nil {
		owned = trace.New("")
		ctx = trace.NewContext(ctx, owned)
	}
	start := time.Now()
	x, err := r.solve(ctx, name, variant, upper, b)
	if owned != nil {
		r.finishTrace(owned, name, err)
	}
	r.met.countOutcome(err, time.Since(start))
	return x, err
}

// solve is the retry loop around solveOnce: bounded attempts,
// only the retriable sentinels (eviction races, queue-full rejections),
// jittered exponential backoff for backpressure, and never a sleep the
// caller's deadline cannot afford.
func (r *Registry) solve(ctx context.Context, name, variant string, upper bool, b []float64) ([]float64, error) {
	if variant != VariantDirect && variant != VariantIC0 {
		return nil, fmt.Errorf("serve: unknown variant %q (have \"\" and %q)", variant, VariantIC0)
	}
	for attempt := 1; ; attempt++ {
		x, err := r.solveOnce(ctx, name, variant, upper, b)
		if err == nil || !retriable(err) || attempt >= retryAttempts {
			return x, translateEvicted(err, name)
		}
		if errors.Is(err, ErrQueueFull) {
			// Backpressure: give the coalescer a jittered beat to drain
			// before re-admitting. An eviction race skips the backoff —
			// the plan rebuild itself is the wait.
			b0 := trace.Now()
			ok := sleepRetry(ctx, backoff(attempt))
			trace.FromContext(ctx).Observe(trace.StageRetryBackoff, b0, trace.Now())
			if !ok {
				return nil, translateEvicted(err, name)
			}
		}
		r.met.Retries.Add(1)
	}
}

// solveOnce is one acquire-and-enqueue attempt.
func (r *Registry) solveOnce(ctx context.Context, name, variant string, upper bool, b []float64) ([]float64, error) {
	g0 := trace.Now()
	st, err := r.acquire(name, VariantDirect)
	if err != nil {
		return nil, err
	}
	// Validate the length against the plan (its IC(0) factor has the same
	// dimension) BEFORE acquiring the factor, so a wrong-length request
	// can never trigger an incomplete-Cholesky factorization it has no
	// use for.
	if len(b) != st.plan.N() {
		return nil, fmt.Errorf("%w: rhs length %d, want %d for plan %q",
			stsk.ErrDimension, len(b), st.plan.N(), name)
	}
	if variant == VariantIC0 {
		if st, err = r.acquire(name, VariantIC0); err != nil {
			return nil, err
		}
	}
	// The registry span covers plan acquisition end to end — a cache hit
	// is microseconds, a cold build or snapshot warm-load is where a
	// "slow solve" that was really a slow build shows up.
	trace.FromContext(ctx).Observe(trace.StageRegistry, g0, trace.Now())
	c := st.lower
	if upper {
		c = st.upper
	}
	return c.solve(ctx, b)
}

// translateEvicted keeps the internal errCoalescerClosed sentinel from
// escaping the registry when a request loses the eviction race on every
// attempt (pathological budget churn): the client gets a retriable 503
// with a milliseconds-scale retry hint (ErrPlanEvicted) instead of an
// opaque 500 — or the 2-second ErrDraining back-off, which would be
// wildly pessimistic for a plan that rebuilds in milliseconds.
func translateEvicted(err error, name string) error {
	if errors.Is(err, errCoalescerClosed) {
		return fmt.Errorf("%w: plan %q, retry", ErrPlanEvicted, name)
	}
	return err
}

// acquire returns the resident state of the named plan or, with
// VariantIC0, of its IC(0) factor — an entry derived from the plan's
// resident state rather than from a spec, so callers acquire the plan
// first. A missing state, or a factor derived at an older value version
// than the plan's, is built once (concurrent callers wait), charged to
// the byte budget, and fitted by evicting least-recently-used states of
// other plans — never the plan's own, so building a plan or its factor
// never evicts the other.
func (r *Registry) acquire(name, variant string) (*state, error) {
	r.mu.Lock()
	for {
		if r.closed {
			r.mu.Unlock()
			return nil, ErrDraining
		}
		p, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
		}
		e := p
		if variant == VariantIC0 {
			if p.ic0 == nil {
				p.ic0 = &entry{}
			}
			e = p.ic0
		}
		if st := e.st; st != nil && e.version == p.version {
			r.clock++
			st.lastUse = r.clock
			r.mu.Unlock()
			return st, nil
		}
		if e.building != nil {
			ch := e.building
			r.mu.Unlock()
			<-ch
			r.mu.Lock()
			continue // built, build failed (this caller retries), or evicted again
		}
		// UpdateValues commits version/vals only while no plan build is in
		// flight (see its residency re-check), so both are frozen while a
		// plan build holds e.building. A factor's build reads them with
		// the plan state it factors: that state's values are at least
		// that version.
		from, ver, pend := p.st, p.version, p.vals
		if e == p {
			// A degraded registry refuses cold builds: the ordering pipeline
			// is seconds of CPU the overloaded node cannot spare, and resident
			// plans are what it must keep serving. Factoring a resident plan
			// is not refused.
			if bst, _ := r.brown.State(); bst == BrownoutDegraded {
				r.mu.Unlock()
				return nil, fmt.Errorf("%w: plan %q is not resident", ErrDegraded, name)
			}
		} else if from == nil {
			r.mu.Unlock()
			return nil, errCoalescerClosed // plan evicted since the caller acquired it
		}
		e.building = make(chan struct{})
		r.mu.Unlock()

		var st *state
		var err error
		snapVer, warm := uint64(0), false
		var snapVals []float64
		func() {
			// The build's panic-containment boundary: a panic in the ordering
			// pipeline or the factorization fails this build with ErrInternal
			// instead of unwinding past the close of e.building below, which
			// would block every later acquire of this name for good.
			defer func() {
				if v := recover(); v != nil {
					st, err = nil, panicsafe.AsError(v)
				}
			}()
			if e != p {
				st, err = r.derive(from)
				return
			}
			// Prefer a warm load: a valid snapshot skips the seconds-scale
			// ordering pipeline entirely. A stale or missing snapshot falls
			// through to the cold build.
			if r.cfg.SnapshotDir != "" {
				st, snapVer, snapVals, warm = r.loadSnapshot(p.spec, ver, pend)
			}
			if !warm {
				st, err = r.buildState(p.spec, pend)
			}
		}()

		r.mu.Lock()
		close(e.building)
		e.building = nil
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		if r.closed {
			r.mu.Unlock()
			st.close()
			return nil, ErrDraining
		}
		if e.st != nil {
			r.dropLocked(e) // the stale factor this one supersedes
		}
		e.st = st
		r.used += st.bytes
		switch {
		case e != p:
			r.met.PlanBuilds.Add(1)
			e.version = ver
			if p.st != from {
				// The plan state was evicted while we factored it, perhaps
				// after an update refactored it that will now never commit:
				// serve this caller, but re-derive for the next.
				e.version = 0
			}
		case warm:
			r.met.SnapshotLoads.Add(1)
			if snapVer > p.version {
				// The snapshot outlives this registry's knowledge (a fresh
				// registration against a previous process's snapshot): adopt
				// its version and values so later rebuilds replay them.
				p.version = snapVer
				p.vals = snapVals
			}
		default:
			r.met.PlanBuilds.Add(1)
		}
		if e == p && (!warm || snapVer < p.version) {
			// The on-disk snapshot is absent or lags the live state; bring
			// it up to date write-behind.
			r.snapshotAsync(p, st)
		}
		r.clock++
		st.lastUse = r.clock
		r.evictLocked(p)
		r.mu.Unlock()
		return st, nil
	}
}

// buildState runs the expensive part — matrix load, ordering pipeline,
// solver — outside the registry mutex. pend, when non-nil, holds
// values the plan was updated to before this (re)build; they are
// reapplied so an evicted-and-rebuilt plan never silently reverts to the
// spec's original matrix.
func (r *Registry) buildState(spec PlanSpec, pend []float64) (*state, error) {
	if err := faultinject.Fire(faultinject.RegistryBuild); err != nil {
		return nil, err
	}
	mat, err := spec.loadMatrix()
	if err != nil {
		return nil, err
	}
	plan, err := stsk.Build(mat, spec.method(), stsk.WithRowsPerSuper(spec.RowsPerSuper))
	if err != nil {
		return nil, err
	}
	if pend != nil {
		if err := plan.Refactor(pend); err != nil {
			return nil, fmt.Errorf("serve: reapplying updated values for plan %q: %w", spec.Name, err)
		}
	}
	return r.newState(plan), nil
}

// derive is a factor entry's build: the incomplete-Cholesky factor of
// the plan state's matrix (Plan.IC0), made servable on its own.
func (r *Registry) derive(from *state) (*state, error) {
	if err := faultinject.Fire(faultinject.RegistryBuild); err != nil {
		return nil, err
	}
	plan, err := from.plan.IC0()
	if err != nil {
		return nil, err
	}
	return r.newState(plan), nil
}

// newState wires a built plan into a servable state: persistent solver,
// forward and backward coalescers, byte estimate.
func (r *Registry) newState(plan *stsk.Plan) *state {
	solver := plan.NewSolver()
	st := &state{
		plan:   plan,
		solver: solver,
		lower:  newCoalescer(solver, false, r.cfg.QueueCap, r.met),
		upper:  newCoalescer(solver, true, r.cfg.QueueCap, r.met),
		bytes:  estimateBytes(plan),
	}
	st.lower.start()
	st.upper.start()
	return st
}

// UpdateValues performs a numeric refactorization of the named plan:
// new values for the registered matrix's fixed sparsity are swapped in
// via Plan.Refactor (copy-on-write — in-flight solves finish on the old
// values, later dispatches see the new ones; nothing drains) and the
// plan's value version is bumped, which leaves a resident IC(0) factor
// stale: the next ic0 request re-derives it. ifVersion, when non-zero,
// makes the update conditional: it fails with ErrVersionConflict unless
// the current version matches (optimistic concurrency for competing
// updaters). The values slice is copied and retained, so updates survive
// LRU eviction — a rebuild reapplies them.
func (r *Registry) UpdateValues(name string, values []float64, ifVersion uint64) (PlanInfo, error) {
	r.updMu.Lock()
	defer r.updMu.Unlock()

	st, err := r.acquire(name, VariantDirect)
	if err != nil {
		return PlanInfo{}, err
	}
	r.mu.Lock()
	e, ok := r.entries[name]
	if !ok {
		r.mu.Unlock()
		return PlanInfo{}, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
	}
	if ifVersion != 0 && e.version != ifVersion {
		cur := e.version
		r.mu.Unlock()
		return PlanInfo{}, fmt.Errorf("%w: plan %q is at version %d, update conditioned on %d",
			ErrVersionConflict, name, cur, ifVersion)
	}
	r.mu.Unlock()

	// Copy before swapping: the caller keeps its slice, and the retained
	// copy must stay immutable for eviction-rebuild replay.
	vals := append([]float64(nil), values...)
	for {
		if err := st.plan.Refactor(vals); err != nil {
			return PlanInfo{}, err
		}

		// Residency re-check: the version bump is committed only in the
		// same critical section that proves the refactored state is the
		// resident one. Without this, an eviction landing between acquire
		// and Refactor leaves the refactorization on a detached state while
		// a concurrent rebuild (which read e.vals before our commit)
		// installs the OLD values — and the bumped version would then lie
		// about what the resident plan serves until its next eviction.
		r.mu.Lock()
		e, ok := r.entries[name]
		if !ok {
			r.mu.Unlock()
			return PlanInfo{}, fmt.Errorf("%w: %q", ErrUnknownPlan, name)
		}
		if e.st == st || (e.st == nil && e.building == nil) {
			// Either our state is resident (it now carries vals), or nothing
			// is resident and no build is in flight — the next build reads
			// e.vals under r.mu and replays them. In both cases a reader of
			// the new version observes the new values.
			e.vals = vals
			e.version++
			if !r.closed {
				r.snapshotAsync(e, st)
			}
			r.mu.Unlock()
			break
		}
		r.mu.Unlock()

		// Lost the race: an eviction+rebuild (or a build still in flight
		// that read the pre-update values) made a different state current.
		// Reapply the values to whatever is resident and re-check, until
		// the refactored state and the resident state are the same one.
		if st, err = r.acquire(name, VariantDirect); err != nil {
			return PlanInfo{}, err
		}
	}
	r.met.ValueUpdates.Add(1)

	infos := r.list(name)
	if len(infos) == 0 {
		return PlanInfo{}, ErrDraining // removed between update and listing
	}
	return infos[0], nil
}

// versions snapshots every registered plan's value version, sorted by
// name, for the per-plan /metrics gauge.
func (r *Registry) versions() []planVersion {
	r.mu.Lock()
	out := make([]planVersion, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, planVersion{name: name, version: e.version})
	}
	r.mu.Unlock()
	slices.SortFunc(out, func(a, b planVersion) int { return strings.Compare(a.name, b.name) })
	return out
}

type planVersion struct {
	name    string
	version uint64
}

// evictLocked (registry mutex held) drops least-recently-used states
// until the budget fits, sparing every state of keep (the plan just
// built or factored — evicting either would thrash). Evicting a plan
// takes its factor along: the factor may carry values of an update that
// landed on the evicted state and will never commit, which its version
// tag cannot tell.
func (r *Registry) evictLocked(keep *entry) {
	for r.used > r.cfg.BudgetBytes {
		var victim *entry
		for p, e := range r.residentLocked {
			if p != keep && (victim == nil || e.st.lastUse < victim.st.lastUse) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		r.met.Evictions.Add(1)
		r.dropLocked(victim)
		if f := victim.ic0; f != nil && f.st != nil {
			r.dropLocked(f)
		}
	}
}

// dropLocked (registry mutex held) unloads e's state and uncharges its
// bytes — the one teardown path of eviction, re-derivation and Close.
// The teardown itself — coalescer drain, Solver.Close — runs on a
// goroutine outside the mutex; requests that raced it either complete
// during the drain or bounce with errCoalescerClosed and transparently
// rebuild.
func (r *Registry) dropLocked(e *entry) {
	st := e.st
	e.st = nil
	r.used -= st.bytes
	r.shutdowns.Add(1)
	panicsafe.Go("serve.teardown", func() {
		defer r.shutdowns.Done()
		st.close()
	})
}

// Close drains every coalescer (queued requests still complete), closes
// every solver, and marks the registry draining: later Register and
// Solve calls fail with ErrDraining. Close is idempotent and returns
// once every resident plan's coalescer dispatchers have exited.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	for _, e := range r.residentLocked {
		r.dropLocked(e)
	}
	r.mu.Unlock()
	// Stop the brownout controller outside the mutex — its evaluate tick
	// takes r.mu (queueStats), so stopping under the lock would deadlock.
	r.brown.close()
	// Every teardown, this Close's and earlier evictions', may still be
	// draining; a Close that returns with dispatcher goroutines live would
	// break embedders asserting quiescence.
	r.shutdowns.Wait()
}

// estimateBytes approximates a built plan's resident footprint: the CSR
// factor and its transpose (16 B per stored entry each), their packed
// int32 twins (12 B each), and the per-row bookkeeping — generous on
// purpose, since the budget exists to bound the process, not to meter it.
func estimateBytes(p *stsk.Plan) int64 {
	st := p.Stats()
	return st.NNZ*56 + int64(st.Rows)*96 + 1<<16
}
