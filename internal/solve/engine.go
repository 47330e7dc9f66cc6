package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/sparse"
	"stsk/internal/trace"
)

// Sentinel errors of the solve layer. All three are re-exported by the
// stsk facade (stsk.ErrClosed, stsk.ErrDimension, stsk.ErrNonFinite) so
// callers can match them with errors.Is no matter which layer produced
// them.
var (
	// ErrClosed is returned by every Engine method after Close.
	ErrClosed = errors.New("solve: engine closed")

	// ErrDimension is wrapped by every vector/batch length check.
	ErrDimension = errors.New("solve: dimension mismatch")

	// ErrNonFinite is wrapped by every refusal of a NaN or infinite factor
	// value: a sweep over one would spread it through every dependent row.
	ErrNonFinite = errors.New("solve: non-finite factor value")
)

// Engine is the one executor of the solve layer: the kernels, the
// scheduling state they need preallocated, and one value-epoch sequence
// — the "preprocessing amortised over many right-hand sides" setting of
// the paper (§4.1) applied to the runtime as well as the ordering. It
// owns no goroutines: each call is swept by its calling goroutine plus
// whichever of the process-wide helpers are idle when it is offered (see
// helpers), Workers goroutines at most, the way an OpenMP parallel loop
// counts its encountering thread as a team member.
//
// Every solve is a row-major panel of k right-hand sides (k = 1 is one
// vector), and every call is one graphRun on the helper set. A call that
// forms a single panel is swept cooperatively: its participants claim
// tasks of the plan's TaskDAG as their predecessors finish (sweepRun),
// so independent subtrees never synchronise. A call that carves into
// several panels is a DAG with no edges over its panels: each
// participant claims whole panels (panelRun) and sweeps each start to
// finish in row order, so distinct panels pipeline through the pack
// levels side by side. Every row's dot product runs in Sequential's
// order on either path, so all results are bitwise identical to
// Sequential. Each call draws its run state from the engine's pools, so
// concurrent calls on one engine run side by side.
//
// Each call pins the current value epoch exactly once and threads it
// through the sweep, so Values.Swap (a numeric refactorization) never
// tears an in-flight solve — old calls finish on the old values, new
// calls see the new ones, and the hot path takes no locks for it.
//
// Engines are safe for concurrent use, including Close racing in-flight
// solves: calls already started complete, later ones return ErrClosed.
type Engine struct {
	vals    *Values       // the value-epoch sequence the kernels sweep
	n       int           // system dimension
	workers int           // most goroutines one call is swept by
	dag     *csrk.TaskDAG // what one-panel calls run over (Values.schedule)
	team    int           // helpers a one-panel call offers
	closed  atomic.Bool

	// Steady-state allocation elimination: per-call run state (one run
	// per call in flight) and row-major n×MaxPanelWidth panel scratch are
	// pooled per engine, so warm solves stop allocating. The pools are
	// typed (pool.go) so the //stsk:noalloc paths never convert through
	// `any`.
	sweepRuns pool[sweepRun]
	panelRuns pool[panelRun]
	panelPool pool[[]float64]
}

// NewEngine builds an engine over a value-epoch sequence: every engine
// over the same Values sees each Values.Swap, and the per-epoch packed
// layouts are built once and shared among them. workers is the most
// goroutines one call is swept by — the caller plus up to workers−1 idle
// helpers — and defaults to GOMAXPROCS when not positive. The engine
// starts no goroutines of its own; it grows the process-wide helper set
// to workers−1 if that is more than any engine asked for before.
//
// The factor must fit the packed layout's 32-bit indices (an error
// wrapping sparse.ErrTooLarge otherwise). An engine of more than one
// worker schedules one-panel calls over v.TaskDAG(); one of one worker,
// or over one super-row, over a single task its caller sweeps alone.
//
// The engine keeps no structure: it reads each call's values, and the
// geometry they are swept in, off the epoch the call pins.
func NewEngine(v *Values, workers int) (*Engine, error) {
	s := v.Structure()
	if err := sparse.CheckPackable(s.L); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := s.L.N
	e := &Engine{vals: v, n: n, workers: workers}
	e.dag, e.team = v.schedule(s, workers)
	e.sweepRuns.fresh = func() *sweepRun { r := new(sweepRun); r.bind(e.dag, r); return r }
	e.panelRuns.fresh = func() *panelRun { r := &panelRun{e: e}; r.bind(&r.panels, r); return r }
	e.panelPool.fresh = func() *[]float64 { buf := make([]float64, n*MaxPanelWidth); return &buf }
	helpers.grow(workers)
	return e, nil
}

// Workers returns the most goroutines one call is swept by.
func (e *Engine) Workers() int { return e.workers }

// Values returns the engine's value-epoch sequence.
func (e *Engine) Values() *Values { return e.vals }

// Diagonal returns (building once per epoch) the diagonal of L′ at the
// current value epoch. The slice is epoch state: callers must treat it as
// read-only.
func (e *Engine) Diagonal() []float64 { return e.vals.Current().packed().Diag }

// Close marks the engine closed: calls already started complete, calls
// issued after Close return ErrClosed. Close is idempotent and does not
// wait, since the engine owns no goroutines to stop.
func (e *Engine) Close() { e.closed.Store(true) }

// SolveIntoCtx solves L′x = b into a caller-provided vector, the caller
// and the idle helpers sweeping the task DAG together. The
// deadline/cancellation is checked before the sweep starts, returning
// ctx.Err() instead of starting. A sweep already started always runs to
// completion — it is not preempted mid-solve.
func (e *Engine) SolveIntoCtx(ctx context.Context, x, b []float64) error {
	return e.solveOne(ctx, x, b, false)
}

// SolveUpperIntoCtx solves L′ᵀx = b into a caller-provided vector,
// sweeping the task DAG in reverse, with the same start-boundary
// semantics as SolveIntoCtx.
func (e *Engine) SolveUpperIntoCtx(ctx context.Context, x, b []float64) error {
	return e.solveOne(ctx, x, b, true)
}

// solveOne is the one-vector call: a width-1 panel swept cooperatively.
func (e *Engine) solveOne(ctx context.Context, x, b []float64, reverse bool) error {
	if len(b) != e.n || len(x) != e.n {
		return fmt.Errorf("%w: vector lengths %d/%d, want %d", ErrDimension, len(x), len(b), e.n)
	}
	return e.panelSolve(ctx, e.pin(ctx, reverse), x, b, 1, reverse)
}

// pin loads the live value epoch — once per call — and returns the packed
// layout the sweep needs (L′, or L′ᵀ when reverse), building it on the
// epoch's first use.
//
//stsk:noalloc
func (e *Engine) pin(ctx context.Context, reverse bool) *sparse.Packed {
	tr := trace.FromContext(ctx)
	p0 := trace.Now()
	ep := e.vals.Current()
	var pk *sparse.Packed
	if reverse {
		pk = ep.packedUpper()
	} else {
		pk = ep.packed()
	}
	tr.Observe(trace.StageEpochPin, p0, trace.Now())
	return pk
}

// admit refuses a call before any of its work starts: a dead context
// returns ctx.Err(), a closed engine ErrClosed.
//
//stsk:noalloc
func (e *Engine) admit(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// panelSolve runs one cooperative sweep of the packed factor pk — scalar
// when kw == 1, a row-major n×kw panel otherwise — over the engine's DAG.
// Each task's rows apply their (col, val) entries across all kw panel
// columns, so the matrix is traversed once per panel instead of once per
// vector. X may alias B. Callers validate lengths (n·kw each) and pin the
// epoch.
//
//stsk:noalloc
func (e *Engine) panelSolve(ctx context.Context, pk *sparse.Packed, X, B []float64, kw int, reverse bool) error {
	if err := e.admit(ctx); err != nil {
		return err
	}
	r := e.sweepRuns.Get()
	r.pk, r.x, r.b, r.kw, r.reverse = pk, X, B, kw, reverse
	err := cooperate(trace.FromContext(ctx), &r.graphRun, e.team)
	r.pk, r.x, r.b = nil, nil, nil
	e.sweepRuns.Put(r)
	return err
}

// sweepRun is a one-panel call: task t solves its rows of the packed
// factor across the panel's kw columns.
type sweepRun struct {
	graphRun
	pk   *sparse.Packed // factor of the epoch pinned at dispatch (L′ᵀ when reverse)
	x, b []float64      // row-major n×kw panels when kw > 1
	kw   int
}

//stsk:noalloc
func (r *sweepRun) rows(lo, hi int) { sweepRows(r.pk, r.x, r.b, r.kw, lo, hi, r.reverse) }
