package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
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

// Options configures an Engine.
type Options struct {
	// Workers is the most goroutines one call is swept by: the caller
	// plus up to Workers−1 idle helpers; defaults to GOMAXPROCS.
	Workers int
	// Graph is the dependency DAG cooperative solves schedule point to
	// point. Nil (the default) selects the value sequence's own,
	// Values.TaskDAG; a DAG passed in, such as a finer carving of the same
	// structure, must fit it. A one-worker engine uses none.
	Graph *csrk.TaskDAG
	// BlockWidth is the default panel width of the blocked multi-vector
	// solves (SolveBlockIntoCtx and SolveUpperBlockIntoCtx): right-hand
	// sides are grouped into row-major panels of up to this many columns
	// and the matrix is traversed once per panel instead of once per
	// vector. 0 selects the widest unrolled kernel (8); widths round down
	// to {8, 4, 2}; 1 disables panelling.
	BlockWidth int
}

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
// vector). A call that forms a single panel is swept cooperatively: its
// participants claim tasks of the plan's TaskDAG as their predecessors
// finish (graphRun), so independent subtrees never synchronise. A call
// that carves into several panels is swept panel by panel: each
// participant claims whole panels off the call's column cursor
// (panelRun) and sweeps each start to finish in row order, so distinct
// panels pipeline through the pack levels side by side. Every row's dot
// product runs in Sequential's order on either path, so all results are
// bitwise identical to Sequential. Each call draws its run state from the
// engine's pools, so concurrent calls on one engine run side by side.
//
// Each call pins the current value epoch exactly once and threads it
// through the sweep, so Values.Swap (a numeric refactorization) never
// tears an in-flight solve — old calls finish on the old values, new
// calls see the new ones, and the hot path takes no locks for it.
//
// Engines are safe for concurrent use, including Close racing in-flight
// solves: calls already started complete, later ones return ErrClosed.
type Engine struct {
	vals   *Values // the value-epoch sequence the kernels sweep
	n      int     // system dimension
	inline bool    // every call sweeps on its caller: one worker, or one super-row
	opts   Options
	closed atomic.Bool

	// Steady-state allocation elimination: per-call run state (one run
	// per call in flight) and row-major n×maxBlockWidth panel scratch are
	// pooled per engine, so warm solves stop allocating. The pools are
	// typed (pool.go) so the //stsk:noalloc paths never convert through
	// `any`.
	graphRuns pool[graphRun]
	panelRuns pool[panelRun]
	panelPool pool[[]float64]
}

// NewEngine builds an engine over a value-epoch sequence: every engine
// over the same Values sees each Values.Swap, and the per-epoch packed
// layouts are built once and shared among them. The engine starts no
// goroutines of its own; it grows the process-wide helper set to
// opts.Workers−1 if that is more than any engine asked for before.
//
// The factor must fit the packed layout's 32-bit indices (an error
// wrapping sparse.ErrTooLarge otherwise). An engine of more than one
// worker schedules over opts.Graph, or over v.TaskDAG() when that is
// nil; a foreign DAG is an error, never a silent race.
//
// The engine keeps no structure: it reads each call's values, and the
// geometry they are swept in, off the epoch the call pins.
func NewEngine(v *Values, opts Options) (*Engine, error) {
	s := v.Structure()
	if err := sparse.CheckPackable(s.L); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	opts.BlockWidth = normalizeBlockWidth(opts.BlockWidth, maxBlockWidth)
	if opts.Workers > 1 {
		if opts.Graph == nil {
			opts.Graph = v.TaskDAG()
		} else if err := opts.Graph.Validate(s); err != nil {
			// A DAG built for another structure would not respect this
			// one's dependencies and would silently race dependent rows.
			return nil, fmt.Errorf("solve: task DAG does not fit the structure: %w", err)
		}
	}
	n := s.L.N
	e := &Engine{
		vals:   v,
		n:      n,
		inline: opts.Workers == 1 || s.NumSuperRows() == 1,
		opts:   opts,
	}
	e.graphRuns.fresh = func() *graphRun { return newGraphRun(opts.Graph) }
	e.panelRuns.fresh = func() *panelRun { return new(panelRun) }
	e.panelPool.fresh = func() *[]float64 { buf := make([]float64, n*maxBlockWidth); return &buf }
	helpers.grow(opts.Workers)
	return e, nil
}

// Workers returns the most goroutines one call is swept by.
func (e *Engine) Workers() int { return e.opts.Workers }

// BlockWidth returns the default panel width of block solves.
func (e *Engine) BlockWidth() int { return e.opts.BlockWidth }

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
	pk, err := e.pin(ctx, reverse)
	if err != nil {
		return err
	}
	return e.panelSolve(ctx, pk, x, b, 1, reverse)
}

// pin loads the live value epoch — once per call — and returns the packed
// layout the sweep needs (L′, or L′ᵀ when reverse), building it on the
// epoch's first use.
//
//stsk:noalloc
func (e *Engine) pin(ctx context.Context, reverse bool) (*sparse.Packed, error) {
	tr := trace.FromContext(ctx)
	p0 := trace.Now()
	ep := e.vals.Current()
	var pk *sparse.Packed
	var err error
	if reverse {
		pk, err = ep.packedUpper()
	} else {
		pk = ep.packed()
	}
	tr.Observe(trace.StageEpochPin, p0, trace.Now())
	return pk, err
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
// when kw == 1, a row-major n×kw panel otherwise — over the task DAG.
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
	tr := trace.FromContext(ctx)
	if e.inline {
		// Degenerate layouts sweep inline on the caller.
		s0 := trace.Now()
		err := e.localSweep(pk, X, B, kw, reverse)
		tr.Observe(trace.StageSweep, s0, trace.Now())
		return err
	}
	g := e.graphRuns.Get()
	g.reset(pk, X, B, kw, reverse)
	err := cooperate(tr, job{graph: g, done: &g.completion}, e.opts.Workers-1)
	g.pk, g.x, g.b = nil, nil, nil
	e.graphRuns.Put(g)
	return err
}

// localSweep runs the degenerate (single worker or single super-row)
// cooperative sweep on the caller's goroutine. It is the containment
// boundary for that path — panelSolve is //stsk:noalloc and cannot hold
// the recover closure itself.
func (e *Engine) localSweep(pk *sparse.Packed, X, B []float64, kw int, reverse bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicsafe.AsError(p)
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		return err
	}
	sweepRows(pk, X, B, kw, 0, e.n, reverse)
	return nil
}
