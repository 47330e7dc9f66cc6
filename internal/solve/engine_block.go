package solve

import (
	"context"
	"fmt"
	"sync/atomic"

	"stsk/internal/faultinject"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
	"stsk/internal/trace"
)

// maxBlockWidth is the widest panel the blocked kernels unroll for, and
// the size the pooled panel scratch is provisioned at.
const maxBlockWidth = 8

// SolveBlockIntoCtx solves L′xᵢ = bᵢ for every right-hand side of B with
// the blocked multi-vector kernels: the right-hand sides are grouped into
// row-major panels of up to width columns and the matrix is traversed
// once per panel — each (col, val) pair loaded once and applied across
// all panel columns — instead of once per vector. A call that forms a
// single panel is swept cooperatively over the task DAG by the caller and
// the idle helpers; a call that forms several panels pipelines them, each
// participant claiming whole panels and sweeping each start to finish.
// Either way each panel column is bitwise identical to a scalar solve of
// that column. X[i] may alias B[i].
//
// width 0 selects the engine's configured BlockWidth; widths are rounded
// down to the unrolled kernel widths {8, 4, 2}, with remainder columns
// falling back to the scalar kernel. Cancellation is checked before each
// panel is claimed, returning ctx.Err() with the remaining panels
// unsolved; the engine stays fully usable.
func (e *Engine) SolveBlockIntoCtx(ctx context.Context, X, B [][]float64, width int) error {
	return e.block(ctx, X, B, width, false)
}

// SolveUpperBlockIntoCtx solves L′ᵀxᵢ = bᵢ for every right-hand side with
// the blocked backward-substitution kernels, with the same panel and
// cancellation semantics as SolveBlockIntoCtx.
func (e *Engine) SolveUpperBlockIntoCtx(ctx context.Context, X, B [][]float64, width int) error {
	return e.block(ctx, X, B, width, true)
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
// that fits one panel (or one scalar column) is swept cooperatively over
// the task DAG; a call that carves into several is swept panel by panel
// (panels) — each panel start-to-finish by one participant, distinct
// panels pipelining through the pack levels with no barriers. The value
// epoch is pinned once per call, so every panel sweeps the same snapshot
// even when a refactorization lands mid-call. All scratch is pooled, so
// warm block solves allocate nothing.
//
//stsk:noalloc
func (e *Engine) block(ctx context.Context, X, B [][]float64, width int, reverse bool) error {
	if err := e.checkPanelDims(X, B); err != nil {
		return err
	}
	if len(B) == 0 {
		return nil
	}
	pk, err := e.pin(ctx, reverse)
	if err != nil {
		return err
	}
	width = normalizeBlockWidth(width, e.opts.BlockWidth)
	if len(B) == 1 {
		return e.panelSolve(ctx, pk, X[0], B[0], 1, reverse)
	}
	if kw := panelWidth(len(B), width); kw == len(B) {
		return e.coopPanel(ctx, pk, X, B, reverse)
	}
	return e.panels(ctx, pk, X, B, width, reverse)
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

// panels sweeps a call that carves into several panels: the caller and
// up to Workers−1 idle helpers — never more participants than panels —
// claim whole panels off the call's column cursor (panelRun). The
// context is checked before the call is offered, so no helper ever
// sweeps under a dead one.
//
//stsk:noalloc
func (e *Engine) panels(ctx context.Context, pk *sparse.Packed, X, B [][]float64, width int, reverse bool) error {
	if err := e.admit(ctx); err != nil {
		return err
	}
	count := 0
	for rem := len(B); rem > 0; count++ {
		rem -= panelWidth(rem, width)
	}
	r := e.panelRuns.Get()
	r.e, r.ctx, r.pk, r.X, r.B, r.width, r.reverse = e, ctx, pk, X, B, width, reverse
	r.next.Store(0)
	err := cooperate(trace.FromContext(ctx), job{panel: r, done: &r.completion}, min(e.opts.Workers, count)-1)
	r.e, r.ctx, r.pk, r.X, r.B = nil, nil, nil, nil, nil
	e.panelRuns.Put(r)
	return err
}

// panelRun is the shared state of one multi-panel call. Its participants
// — the caller and the helpers that joined — claim whole panels off the
// column cursor next, with panelWidth's greedy widest-first carving, and
// sweep each start to finish on the epoch the caller pinned. Failures
// are per panel: a panel whose sweep panics or meets an injected fault
// is left unsolved and reported, and its mates are unharmed.
type panelRun struct {
	e *Engine
	//stsk:allow-ctx-field (call-scoped: observed between panels, cleared before the run is pooled)
	ctx     context.Context
	pk      *sparse.Packed
	X, B    [][]float64
	width   int
	reverse bool

	next atomic.Int64 // first column no participant has claimed
	completion
}

// runShare is one participant's share of a multi-panel call: claim and
// sweep the next panel until the columns run out or the context dies,
// which leaves the remaining panels unsolved.
func (r *panelRun) runShare() {
	for {
		if err := r.ctx.Err(); err != nil {
			r.fail(err)
			return
		}
		lo := r.next.Load()
		if int(lo) >= len(r.B) {
			return
		}
		kw := panelWidth(len(r.B)-int(lo), r.width)
		if r.next.CompareAndSwap(lo, lo+int64(kw)) {
			if err := r.sweep(int(lo), kw); err != nil {
				r.fail(err)
			}
		}
	}
}

// sweep is the panic-containment boundary of one panel, columns
// [lo, lo+kw): a kernel panic (or an injected engine.job fault) becomes
// a wrapped panicsafe.ErrInternal reported for the call, and this
// participant goes on to the next panel.
func (r *panelRun) sweep(lo, kw int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = panicsafe.AsError(p)
		}
	}()
	if err := faultinject.Fire(faultinject.EngineJob); err != nil {
		return err
	}
	r.e.sweepPanel(r.pk, r.X[lo:lo+kw], r.B[lo:lo+kw], r.reverse)
	return nil
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

// normalizeBlockWidth resolves a requested panel width: non-positive
// means the engine default, and any width is rounded down to the widths
// the kernels unroll.
func normalizeBlockWidth(w, fallback int) int {
	if w <= 0 {
		w = fallback
	}
	switch {
	case w >= 8:
		return 8
	case w >= 4:
		return 4
	case w >= 2:
		return 2
	}
	return 1
}

// panelWidth picks the widest kernel width ≤ width that the remaining
// column count fills; the last columns of a batch fall through to 1 (the
// scalar kernel).
func panelWidth(rem, width int) int {
	for w := width; w > 1; w >>= 1 {
		if rem >= w {
			return w
		}
	}
	return 1
}
