package solve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
	"stsk/internal/trace"
)

// Sentinel errors of the solve layer. Both are re-exported by the stsk
// facade (stsk.ErrClosed, stsk.ErrDimension) so callers can match them
// with errors.Is no matter which layer produced them.
var (
	// ErrClosed is returned by every Engine method after Close.
	ErrClosed = errors.New("solve: engine closed")

	// ErrDimension is wrapped by every vector/batch length check.
	ErrDimension = errors.New("solve: dimension mismatch")
)

// Options configures an Engine.
type Options struct {
	// Workers is the number of pool goroutines; defaults to GOMAXPROCS.
	Workers int
	// Graph is the structure's dependency DAG, built once at plan time by
	// order.BuildTaskDAG. Cooperative solves schedule its tasks point to
	// point; an engine with more than one worker requires it.
	Graph *csrk.TaskDAG
	// BlockWidth is the default panel width of the blocked multi-vector
	// solves (SolveBlockIntoCtx and SolveUpperBlockIntoCtx): right-hand
	// sides are grouped into row-major panels of up to this many columns
	// and the matrix is traversed once per panel instead of once per
	// vector. 0 selects the widest unrolled kernel (8); widths round down
	// to {8, 4, 2}; 1 disables panelling.
	BlockWidth int
}

// Engine is the one executor of the solve layer: a persistent worker pool
// bound to one value-epoch sequence, started once and parked on a job
// channel between solves — the "preprocessing amortised over many
// right-hand sides" setting of the paper (§4.1) applied to the runtime as
// well as the ordering.
//
// Every solve is a row-major panel of k right-hand sides (k = 1 is one
// vector). A call that forms a single panel is swept cooperatively: all
// workers claim tasks of the plan's TaskDAG as their predecessors finish
// (graphRun), so independent subtrees never synchronise. Cooperative
// solves are serialised internally; callers may issue them concurrently.
// A call that carves into several panels hands each panel whole to one
// worker, which sweeps it start to finish in row order, so distinct
// panels pipeline through the pack levels side by side. Every row's dot
// product runs in Sequential's order on either path, so all results are
// bitwise identical to Sequential.
//
// Each dispatch pins the current value epoch exactly once and threads it
// through the sweep, so Values.Swap (a numeric refactorization) never
// tears an in-flight solve — old dispatches finish on the old values, new
// dispatches see the new ones, and the hot path takes no locks for it.
//
// Engines are safe for concurrent use, including Close racing in-flight
// solves: solves already dispatched complete, later ones return
// ErrClosed.
type Engine struct {
	s    *csrk.Structure // the pack/super-row geometry, shared by every epoch
	vals *Values         // the value-epoch sequence the kernels sweep
	n    int             // system dimension
	opts Options

	jobs     chan job
	workerWG sync.WaitGroup
	closeMu  sync.RWMutex
	closed   bool

	// Steady-state allocation elimination: panel jobs, call completion
	// trackers and panel scratch are pooled per engine, so warm solves stop
	// allocating. The pools are typed wrappers (pool.go) so the
	// //stsk:noalloc dispatch paths never convert through `any`.
	jobPool   wholeJobPool
	runPool   batchRunPool
	panelPool panelPool

	// Cooperative-solve state, reused across solves under solveMu.
	solveMu sync.Mutex
	graph   graphRun
}

// job is one unit handed to a parked worker: a share of a cooperative
// graph solve, or one whole panel.
type job struct {
	graph *graphRun
	whole *wholeJob
}

// wholeJob is one panel of a multi-panel call, swept start to finish by
// one worker: the columns xs/bs, the packed factor of the epoch the
// dispatcher pinned (so every panel of a call sweeps one snapshot no
// matter when a refactorization lands), and the call's completion
// tracker.
type wholeJob struct {
	pk      *sparse.Packed
	reverse bool
	xs, bs  [][]float64
	run     *batchRun
}

// batchRun tracks one multi-panel call's completion without allocating a
// channel per call: workers decrement remaining, record the first error,
// and the last one signals done (capacity 1, reused via runPool).
type batchRun struct {
	remaining atomic.Int32
	mu        sync.Mutex
	err       error
	done      chan struct{}
}

// finish records one completed panel. The error write is sequenced before
// the decrement, so whoever observes remaining hit zero (the done
// receiver or the dispatcher folding in undispatched panels) sees every
// error.
func (r *batchRun) finish(err error) {
	if err != nil {
		r.mu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.mu.Unlock()
	}
	if r.remaining.Add(-1) == 0 {
		r.done <- struct{}{}
	}
}

// NewEngine starts a persistent pool of opts.Workers goroutines over a
// value-epoch sequence: every engine over the same Values sees each
// Values.Swap, and the per-epoch packed layouts are built once and shared
// among them. The pool idles on a channel between solves; call Close (or
// drop every reference — the stsk facade attaches a GC cleanup) to
// release it.
//
// The factor must fit the packed layout's 32-bit indices (an error
// wrapping sparse.ErrTooLarge otherwise), and an engine of more than one
// worker needs opts.Graph built for this structure: a missing or foreign
// DAG is an error, never a silent change of schedule.
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
			return nil, fmt.Errorf("solve: %d workers need the structure's task DAG", opts.Workers)
		}
		// A DAG built for another structure would not respect this one's
		// dependencies and would silently race dependent rows.
		if err := opts.Graph.Validate(s); err != nil {
			return nil, fmt.Errorf("solve: task DAG does not fit the structure: %w", err)
		}
	}
	e := &Engine{
		s:    s,
		vals: v,
		n:    s.L.N,
		opts: opts,
		jobs: make(chan job),
	}
	e.panelPool.size = s.L.N * maxBlockWidth
	if opts.Graph != nil {
		e.graph.init(opts.Graph)
	}
	for w := 0; w < opts.Workers; w++ {
		e.workerWG.Add(1)
		go e.workerLoop()
	}
	return e, nil
}

// Workers returns the fixed pool size.
func (e *Engine) Workers() int { return e.opts.Workers }

// BlockWidth returns the default panel width of block solves.
func (e *Engine) BlockWidth() int { return e.opts.BlockWidth }

// Values returns the engine's value-epoch sequence.
func (e *Engine) Values() *Values { return e.vals }

// Diagonal returns (building once per epoch) the diagonal of L′ at the
// current value epoch. The slice is epoch state: callers must treat it as
// read-only.
func (e *Engine) Diagonal() []float64 { return e.vals.Current().packed().Diag }

// Close drains the pool and waits for every worker to exit. Solves issued
// after Close return ErrClosed; Close is idempotent.
func (e *Engine) Close() {
	e.closeMu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.closeMu.Unlock()
	e.workerWG.Wait()
}

// submitCtx enqueues a job unless the engine is closed, racing the
// context: when every worker is busy and the caller is cancelled while
// waiting for a pool slot, it gives up and returns ctx.Err(). The read
// lock only covers the send, so Close can proceed while callers wait on
// results.
//
//stsk:noalloc
func (e *Engine) submitCtx(ctx context.Context, j job) error {
	e.closeMu.RLock()
	defer e.closeMu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	select {
	case e.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// workerLoop is worker plus a last-resort respawn barrier. Contained
// panics never reach it — runWhole and graphRun.runShare recover at the
// job boundary — but if the loop machinery itself ever panics the pool
// replaces the goroutine instead of silently shrinking.
func (e *Engine) workerLoop() {
	defer func() {
		if p := recover(); p != nil {
			_ = panicsafe.AsError(p) // converted for the stack capture; nowhere to report
			e.closeMu.RLock()
			if !e.closed {
				e.workerWG.Add(1)
				go e.workerLoop()
			}
			e.closeMu.RUnlock()
		}
		e.workerWG.Done()
	}()
	e.worker()
}

// worker is the parked pool goroutine: it sleeps on the job channel and
// runs whatever share of work arrives.
func (e *Engine) worker() {
	for j := range e.jobs {
		if w := j.whole; w != nil {
			err := e.runWhole(w)
			// Recycle the job before signalling: once the completion is
			// visible the dispatcher may return, and the pooled job must
			// already be free of references.
			run := w.run
			*w = wholeJob{}
			e.jobPool.Put(w)
			run.finish(err)
			continue
		}
		j.graph.runShare()
		j.graph.wg.Done()
	}
}

// runWhole is the panic-containment boundary for one whole-panel job: a
// kernel panic (or an injected engine.job fault) becomes a wrapped
// panicsafe.ErrInternal flowing through the call's normal completion
// path, so the completion counter always fires and panels on other
// workers are unharmed.
func (e *Engine) runWhole(w *wholeJob) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicsafe.AsError(p)
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		return err
	}
	e.sweepPanel(w.pk, w.xs, w.bs, w.reverse)
	return nil
}

// SolveIntoCtx solves L′x = b into a caller-provided vector, all pool
// workers sweeping the task DAG together. The deadline/cancellation is
// checked before the solve is dispatched (and again after any wait for an
// earlier cooperative solve), returning ctx.Err() instead of starting. A
// sweep already dispatched always runs to completion — it is not
// preempted mid-solve.
func (e *Engine) SolveIntoCtx(ctx context.Context, x, b []float64) error {
	return e.solveOne(ctx, x, b, false)
}

// SolveUpperIntoCtx solves L′ᵀx = b into a caller-provided vector,
// sweeping the task DAG in reverse, with the same dispatch-boundary
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

// panelSolve runs one cooperative sweep of the packed factor pk — scalar
// when kw == 1, a row-major n×kw panel otherwise — over the task DAG.
// Each task's rows apply their (col, val) entries across all kw panel
// columns, so the matrix is traversed once per panel instead of once per
// vector. X may alias B. Callers validate lengths (n·kw each) and pin the
// epoch.
//
//stsk:noalloc
func (e *Engine) panelSolve(ctx context.Context, pk *sparse.Packed, X, B []float64, kw int, reverse bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := trace.FromContext(ctx)
	if e.opts.Workers == 1 || e.s.NumSuperRows() == 1 {
		// Degenerate layouts skip the pool entirely.
		e.closeMu.RLock()
		closed := e.closed
		e.closeMu.RUnlock()
		if closed {
			return ErrClosed
		}
		s0 := trace.Now()
		err := e.localSweep(pk, X, B, kw, reverse)
		tr.Observe(trace.StageSweep, s0, trace.Now())
		return err
	}
	e.solveMu.Lock()
	defer e.solveMu.Unlock()
	// Queueing behind earlier cooperative solves can outlast the deadline;
	// re-check before committing the pool.
	if err := ctx.Err(); err != nil {
		return err
	}
	s0 := trace.Now()
	err := e.graphSolve(pk, X, B, kw, reverse)
	tr.Observe(trace.StageSweep, s0, trace.Now())
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

// graphSolve runs one dependency-driven cooperative solve (see graphRun),
// scalar or panel. Called under solveMu. All shares are dispatched under
// one read-lock so Close cannot land between them; Close taken after
// dispatch merely waits — the workers finish this solve before they
// observe the closed channel.
//
//stsk:noalloc
func (e *Engine) graphSolve(pk *sparse.Packed, x, b []float64, kw int, reverse bool) error {
	g := &e.graph
	g.reset(pk, x, b, kw, reverse)
	e.closeMu.RLock()
	if e.closed {
		e.closeMu.RUnlock()
		return ErrClosed
	}
	for w := 0; w < e.opts.Workers; w++ {
		g.wg.Add(1)
		e.jobs <- job{graph: g}
	}
	e.closeMu.RUnlock()
	g.wg.Wait()
	err := g.failErr
	g.failErr = nil
	g.pk, g.x, g.b = nil, nil, nil
	return err
}

// finishRun completes a pooled batchRun after a dispatch loop: fold the
// undispatched panels into the counter — whoever takes it to zero owns
// the completion signal; if that is a worker it signals done, if it is
// this Add no signal was (or will be) sent, because in-flight workers
// only ever saw a positive count — then wait, collect the first worker
// error (dispatch errors win), and recycle the run.
//
//stsk:noalloc
func (e *Engine) finishRun(run *batchRun, total, issued int, first error) error {
	if skipped := total - issued; skipped == 0 || run.remaining.Add(-int32(skipped)) > 0 {
		<-run.done
	}
	err := run.err
	run.err = nil
	e.runPool.Put(run)
	if first == nil {
		first = err
	}
	return first
}
