package solve

import (
	"context"
	"fmt"

	"stsk/internal/csrk"
	"stsk/internal/sparse"
	"stsk/internal/trace"
)

// SolveBlockIntoCtx solves L′xᵢ = bᵢ for every right-hand side of B with
// the panel kernel: the right-hand sides are carved greedily into
// row-major panels of 8, 4, 2 and 1 columns (panelWidth) and the matrix
// is traversed once per panel — each (col, val) pair loaded once and
// applied across all panel columns — instead of once per vector. A call
// that forms a single panel is swept cooperatively over the task DAG by
// the caller and the idle helpers; a call that forms several panels
// pipelines them, each participant claiming whole panels and sweeping
// each start to finish. Either way each panel column is bitwise
// identical to a scalar solve of that column. X[i] may alias B[i].
//
// Cancellation is checked before each panel is claimed, returning
// ctx.Err() with the remaining panels unsolved; the engine stays fully
// usable.
func (e *Engine) SolveBlockIntoCtx(ctx context.Context, X, B [][]float64) error {
	return e.block(ctx, X, B, false)
}

// SolveUpperBlockIntoCtx solves L′ᵀxᵢ = bᵢ for every right-hand side with
// backward substitution, with the same panel and cancellation semantics
// as SolveBlockIntoCtx.
func (e *Engine) SolveUpperBlockIntoCtx(ctx context.Context, X, B [][]float64) error {
	return e.block(ctx, X, B, true)
}

// checkPanelDims validates a solution/right-hand-side batch eagerly: the
// batch lengths must agree and every vector must match the system
// dimension, reported with the offending index, so ragged input fails
// with ErrDimension before any work starts.
func (e *Engine) checkPanelDims(X, B [][]float64) error {
	if len(X) != len(B) {
		return fmt.Errorf("%w: batch lengths %d/%d differ", ErrDimension, len(X), len(B))
	}
	n := e.n
	for i := range B {
		if len(X[i]) != n || len(B[i]) != n {
			return fmt.Errorf("%w: rhs %d vector lengths %d/%d, want %d", ErrDimension, i, len(X[i]), len(B[i]), n)
		}
	}
	return nil
}

// block carves the right-hand sides into panels and solves them. A call
// that is one panel (1, 2, 4 or 8 columns) is swept cooperatively over
// the task DAG; a call that carves into several is swept panel by panel
// (panels) — each panel start-to-finish by one participant, distinct
// panels pipelining through the pack levels with no barriers. The value
// epoch is pinned once per call, so every panel sweeps the same snapshot
// even when a refactorization lands mid-call. All scratch is pooled, so
// warm block solves allocate nothing.
//
//stsk:noalloc
func (e *Engine) block(ctx context.Context, X, B [][]float64, reverse bool) error {
	if err := e.checkPanelDims(X, B); err != nil {
		return err
	}
	if len(B) == 0 {
		return nil
	}
	pk := e.pin(ctx, reverse)
	if len(B) == 1 {
		return e.panelSolve(ctx, pk, X[0], B[0], 1, reverse)
	}
	if panelWidth(len(B)) == len(B) {
		return e.coopPanel(ctx, pk, X, B, reverse)
	}
	return e.panels(ctx, pk, X, B, reverse)
}

// coopPanel runs one multi-column panel cooperatively: pack the columns
// into the pooled row-major scratch, sweep it in place over the task DAG
// (in-place is safe — a row's B entries are read before its X entries are
// written, and every other access is to already-solved rows), scatter the
// solutions back out.
//
//stsk:noalloc
func (e *Engine) coopPanel(ctx context.Context, pk *sparse.Packed, X, B [][]float64, reverse bool) error {
	kw := len(B)
	bufp := e.panelPool.Get()
	buf := (*bufp)[:e.n*kw]
	sparse.PackPanel(buf, B)
	err := e.panelSolve(ctx, pk, buf, buf, kw, reverse)
	if err == nil {
		sparse.UnpackPanel(X, buf)
	}
	e.panelPool.Put(bufp)
	return err
}

// panels sweeps a call that carves into several panels: its panels,
// laid out as a DAG with no edges (panelRun.carve), are the tasks the
// caller and up to Workers−1 idle helpers — never more participants than
// panels — claim. The context is checked before the call is offered, so
// no helper ever sweeps under a dead one.
//
//stsk:noalloc
func (e *Engine) panels(ctx context.Context, pk *sparse.Packed, X, B [][]float64, reverse bool) error {
	if err := e.admit(ctx); err != nil {
		return err
	}
	r := e.panelRuns.Get()
	r.carve(len(B))
	r.ctx, r.pk, r.X, r.B, r.reverse = ctx, pk, X, B, reverse
	err := cooperate(trace.FromContext(ctx), &r.graphRun, min(e.workers, r.panels.NumTasks())-1)
	r.ctx, r.pk, r.X, r.B = nil, nil, nil, nil
	e.panelRuns.Put(r)
	return err
}

// panelRun is a multi-panel call: task t sweeps panel t start to finish
// on the epoch the caller pinned. The panels are carved greedily
// widest-first (panelWidth) and laid out per call in the run's grow-only
// arrays. Failures are per panel: a panel whose sweep panics, or whose
// context has died, is left unsolved and reported, and its mates are
// unharmed.
type panelRun struct {
	graphRun
	e *Engine
	//stsk:allow-ctx-field (call-scoped: observed before each panel, cleared before the run is pooled)
	ctx    context.Context
	pk     *sparse.Packed
	X, B   [][]float64
	panels csrk.TaskDAG // task t is columns [RowPtr[t], RowPtr[t+1]); no edges
}

// carve lays a call of k columns out as panels, over the arrays of the
// last call's.
func (r *panelRun) carve(k int) {
	bounds := append(r.panels.RowPtr[:0], 0)
	for lo := 0; lo < k; {
		lo += panelWidth(k - lo)
		bounds = append(bounds, int32(lo))
	}
	independent(&r.panels, bounds)
}

// rows sweeps the panel of columns [lo, hi) unless the call's context
// has died, which leaves the panel unsolved and fails the call.
//
//stsk:noalloc
func (r *panelRun) rows(lo, hi int) {
	if err := r.ctx.Err(); err != nil {
		r.fail(err)
		return
	}
	r.e.sweepPanel(r.pk, r.X[lo:hi], r.B[lo:hi], r.reverse)
}

// sweepPanel sweeps one panel of a multi-panel call: one sequential
// sweep over all rows — straight through the vectors for a single
// column, packed into pooled row-major scratch and scattered back for a
// wider panel. Row order is Sequential's, so every column stays bitwise
// identical.
//
//stsk:noalloc
func (e *Engine) sweepPanel(pk *sparse.Packed, xs, bs [][]float64, reverse bool) {
	n, kw := e.n, len(bs)
	if kw == 1 {
		sweepRows(pk, xs[0], bs[0], 1, 0, n, reverse)
		return
	}
	bufp := e.panelPool.Get()
	buf := (*bufp)[:n*kw]
	sparse.PackPanel(buf, bs)
	sweepRows(pk, buf, buf, kw, 0, n, reverse)
	sparse.UnpackPanel(xs, buf)
	e.panelPool.Put(bufp)
}
