package stsk

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"stsk/internal/solve"
)

// PanelWidth is the widest panel a block solve sweeps in one matrix
// traversal: a call's right-hand sides are carved greedily into panels
// of 8, 4, 2 and 1 columns, so a batch of PanelWidth right-hand sides is
// one panel.
const PanelWidth = solve.MaxPanelWidth

// Solver is a reusable solve engine over one Plan, with the scheduling
// state preallocated — the "many solves per ordering" traffic shape that
// motivates the paper (§4.1), amortised at runtime as well. It owns no
// goroutines: each call is swept by the calling goroutine plus whichever
// of the process-wide parked helpers are idle, WithWorkers goroutines at
// most.
//
// Every solve is a panel of right-hand sides (one vector is a panel of
// width 1):
//
//   - Single solves (Solve, SolveInto, SolveIntoCtx, SolveUpper,
//     SolveUpperInto, SolveUpperIntoCtx, ApplySGSInto): one right-hand
//     side swept cooperatively over the plan's task DAG.
//   - Block solves (SolveBlock, SolveBlockInto, SolveUpperBlock,
//     SolveUpperBlockInto): many right-hand sides carved into panels of
//     8, 4, 2 and 1 columns (at most PanelWidth), each panel swept in one
//     matrix traversal — cooperatively when the call is a single panel,
//     each panel whole by one of the call's goroutines when it carves
//     into several.
//   - Streaming solves (SolveSeq): vectors drawn one at a time from an
//     iterator, each solved before the next is drawn.
//
// The context-aware forms honor cancellation and deadlines: a dead
// context stops new work from starting and the call returns ctx.Err(),
// leaving the Solver fully usable. Right-hand sides of the wrong length
// are rejected with ErrDimension before any work starts, and solves
// issued after Close return ErrClosed; both match with errors.Is.
//
// All shapes produce results bitwise identical to Plan.SolveSequential.
// A Solver is safe for concurrent use from multiple goroutines, and
// concurrent calls run side by side.
type Solver struct {
	plan    *Plan
	eng     *solve.Engine
	scratch sync.Pool // intermediate vectors for ApplySGSInto
}

// NewSolver builds a persistent solve engine for the plan. WithWorkers
// fixes the most goroutines one call is swept by (GOMAXPROCS by default)
// for the solver's lifetime; a solver with more than one worker
// schedules its cooperative sweeps over the plan's task DAG, derived on
// the first such solver and shared by all of them. The Solver starts no
// goroutines, so one that is dropped without Close leaves nothing
// behind.
func (p *Plan) NewSolver(opts ...Option) *Solver {
	// Every solver of this plan binds to the plan's shared value-epoch
	// sequence, so per-epoch derived state (the packed layouts of the
	// factor and its transpose) is built once and shared by all of them —
	// and a Plan.Refactor is picked up by every solver's next call.
	c := applyOptions(opts)
	eng, err := solve.NewEngine(p.vals, solve.Options{Workers: c.workers})
	if err != nil {
		// Build and ReadSnapshot refuse factors the packed kernels cannot
		// index, and the DAG is the sequence's own: this cannot fail.
		panic(err)
	}
	s := &Solver{plan: p, eng: eng}
	// Pool *[]float64, not []float64: boxing a slice header into the pool's
	// interface allocates, which would cost one allocation per ApplySGSInto.
	s.scratch.New = func() any { buf := make([]float64, p.N()); return &buf }
	return s
}

// Workers returns the most goroutines one of the solver's calls is swept
// by.
func (s *Solver) Workers() int { return s.eng.Workers() }

// Plan returns the plan this solver is bound to.
func (s *Solver) Plan() *Plan { return s.plan }

// Close retires the solver: solves already in flight complete, solves
// issued after Close fail with ErrClosed. Close is idempotent.
func (s *Solver) Close() { s.eng.Close() }

// Solve solves L′x = b (both in plan order) and returns x.
func (s *Solver) Solve(b []float64) ([]float64, error) {
	x := make([]float64, s.plan.N())
	if err := s.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve writing into a caller-provided vector.
//
//stsk:allow-background (non-context convenience wrapper; SolveIntoCtx threads a caller ctx)
func (s *Solver) SolveInto(x, b []float64) error {
	return s.SolveIntoCtx(context.Background(), x, b)
}

// SolveIntoCtx is SolveInto honoring a context: cancellation and
// deadline are checked before the sweep starts (a sweep already running
// is never preempted), returning ctx.Err() without touching x — the
// allocation-free form for context-aware solve loops over a reused
// solution buffer.
func (s *Solver) SolveIntoCtx(ctx context.Context, x, b []float64) error {
	if err := s.checkDims(x, b); err != nil {
		return err
	}
	return s.eng.SolveIntoCtx(ctx, x, b)
}

// SolveUpper solves the transposed system L′ᵀx = b, the task DAG swept
// in reverse — the second sweep of a symmetric Gauss–Seidel or
// incomplete-Cholesky preconditioner.
func (s *Solver) SolveUpper(b []float64) ([]float64, error) {
	x := make([]float64, s.plan.N())
	if err := s.SolveUpperInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveUpperInto is SolveUpper writing into a caller-provided vector.
//
//stsk:allow-background (non-context convenience wrapper; SolveUpperIntoCtx threads a caller ctx)
func (s *Solver) SolveUpperInto(x, b []float64) error {
	return s.SolveUpperIntoCtx(context.Background(), x, b)
}

// SolveUpperIntoCtx is SolveUpperInto honoring a context, with the same
// start-boundary semantics as SolveIntoCtx.
func (s *Solver) SolveUpperIntoCtx(ctx context.Context, x, b []float64) error {
	if err := s.checkDims(x, b); err != nil {
		return err
	}
	return s.eng.SolveUpperIntoCtx(ctx, x, b)
}

// SolveBlock solves L′xᵢ = bᵢ for every right-hand side of xs panel by
// panel and returns the solutions in order. Where Solve walks the full
// matrix once per right-hand side, SolveBlock carves the vectors into
// row-major panels of 8, 4, 2 and 1 columns (greedily, widest first)
// and sweeps each panel in a single matrix traversal, loading each
// (col, val) pair once and applying it across all panel columns. Index and value traffic per right-hand side
// drops by the panel width, which is what bounds a cache-resident solve.
// A call that is a single panel is swept cooperatively over the task
// DAG; in a call of several panels each of the call's goroutines sweeps
// whole panels, so the panels pipeline through the pack levels side by
// side.
//
// Every panel column is bitwise identical to Solve on that right-hand
// side (and so to Plan.SolveSequential). Cancellation is honored between
// panels: a dead context returns ctx.Err() with the remaining panels
// unsolved and the Solver fully usable. Ragged or wrong-length
// right-hand sides fail the whole call with ErrDimension before any work
// starts; after Close the call fails with ErrClosed.
func (s *Solver) SolveBlock(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if err := s.checkBatchDims(xs); err != nil {
		return nil, err
	}
	X := make([][]float64, len(xs))
	for i := range X {
		X[i] = make([]float64, s.plan.N())
	}
	if err := s.eng.SolveBlockIntoCtx(ctx, X, xs); err != nil {
		return nil, err
	}
	return X, nil
}

// SolveBlockInto is SolveBlock writing into caller-provided solution
// vectors — the allocation-free form once the solver is warm. X[i] may
// alias B[i] for an in-place solve.
func (s *Solver) SolveBlockInto(ctx context.Context, X, B [][]float64) error {
	if err := s.checkBatchPairs(X, B); err != nil {
		return err
	}
	return s.eng.SolveBlockIntoCtx(ctx, X, B)
}

// SolveUpperBlock solves the transposed system L′ᵀxᵢ = bᵢ for every
// right-hand side by backward substitution, panels swept in reverse —
// the multi-vector form of SolveUpper.
func (s *Solver) SolveUpperBlock(ctx context.Context, xs [][]float64) ([][]float64, error) {
	if err := s.checkBatchDims(xs); err != nil {
		return nil, err
	}
	X := make([][]float64, len(xs))
	for i := range X {
		X[i] = make([]float64, s.plan.N())
	}
	if err := s.eng.SolveUpperBlockIntoCtx(ctx, X, xs); err != nil {
		return nil, err
	}
	return X, nil
}

// SolveUpperBlockInto is SolveUpperBlock writing into caller-provided
// solution vectors.
func (s *Solver) SolveUpperBlockInto(ctx context.Context, X, B [][]float64) error {
	if err := s.checkBatchPairs(X, B); err != nil {
		return err
	}
	return s.eng.SolveUpperBlockIntoCtx(ctx, X, B)
}

// checkDims validates a solution/right-hand-side pair at the facade.
func (s *Solver) checkDims(x, b []float64) error {
	n := s.plan.N()
	if len(x) != n || len(b) != n {
		return dimErr(len(x), len(b), n)
	}
	return nil
}

// checkBatchDims validates a whole batch at the facade, reporting the
// first offending vector.
func (s *Solver) checkBatchDims(B [][]float64) error {
	n := s.plan.N()
	for i, b := range B {
		if len(b) != n {
			return fmt.Errorf("%w: rhs %d has length %d, want %d", ErrDimension, i, len(b), n)
		}
	}
	return nil
}

// checkBatchPairs validates caller-provided solution and right-hand-side
// batches together before any work starts.
func (s *Solver) checkBatchPairs(X, B [][]float64) error {
	if len(X) != len(B) {
		return fmt.Errorf("%w: batch lengths %d/%d differ", ErrDimension, len(X), len(B))
	}
	if err := s.checkBatchDims(B); err != nil {
		return err
	}
	return s.checkBatchDims(X)
}

// SolveResult is one solved right-hand side from SolveSeq.
type SolveResult struct {
	X   []float64
	Err error
}

// SolveSeq solves the right-hand sides of an iterator one at a time and
// returns the results as an iterator over (index, result) pairs, in input
// order:
//
//	for i, res := range solver.SolveSeq(ctx, slices.Values(B)) {
//	    if res.Err != nil { ... }
//	    use(i, res.X)
//	}
//
// Each vector is solved — one cooperative solve, pinning the value epoch
// current at that vector — and its result yielded before the
// next vector is drawn, so the stream runs in constant memory and a
// stream whose next vector depends on the previous result works. Nothing
// runs on another goroutine: a panic in bs or in the loop body reaches
// the caller. A vector of the wrong length yields an ErrDimension result
// and the stream goes on. Breaking out of the range loop stops drawing
// vectors; a cancelled ctx is observed between vectors and ends the
// stream with a final result carrying ctx.Err().
func (s *Solver) SolveSeq(ctx context.Context, bs iter.Seq[[]float64]) iter.Seq2[int, SolveResult] {
	return func(yield func(int, SolveResult) bool) {
		i := 0
		for b := range bs {
			res := SolveResult{Err: ctx.Err()}
			if res.Err == nil {
				res.X = make([]float64, s.plan.N())
				if res.Err = s.SolveIntoCtx(ctx, res.X, b); res.Err != nil {
					res.X = nil
				}
			}
			// A result carrying the context's error is the stream's last.
			if !yield(i, res) || (res.Err != nil && res.Err == ctx.Err()) {
				return
			}
			i++
		}
	}
}

// ApplySGSInto applies the symmetric Gauss–Seidel preconditioner
// M⁻¹ = (L′ D⁻¹ L′ᵀ)⁻¹ to r and writes z = M⁻¹r: a forward sweep, a
// diagonal scale, and a backward sweep, each swept cooperatively — one
// PCG preconditioner application with no goroutine spawns and no
// allocations.
//
// The three stages are separate calls, so a Plan.Refactor landing
// mid-call can split them across value epochs.
func (s *Solver) ApplySGSInto(z, r []float64) error {
	if err := s.checkDims(z, r); err != nil {
		return err
	}
	yp := s.scratch.Get().(*[]float64)
	y := *yp
	defer s.scratch.Put(yp)
	if err := s.SolveInto(y, r); err != nil {
		return err
	}
	d := s.eng.Diagonal() // engine-owned, read-only
	for i := range y {
		y[i] *= d[i]
	}
	return s.SolveUpperInto(z, y)
}
