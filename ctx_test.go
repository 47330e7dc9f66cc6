package stsk

// Context-cancellation and sentinel-error tests for the v2 facade: a
// cancelled block call returns context.Canceled and leaves the Solver
// reusable, SolveSeq streams in order, survives early breaks, cancels
// and Close, and every failure mode matches its sentinel via errors.Is.

import (
	"context"
	"errors"
	"iter"
	"slices"
	"testing"
	"time"
)

func testPlan(t *testing.T, class string, n, rowsPerSuper int) *Plan {
	t.Helper()
	mat, err := Generate(class, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(rowsPerSuper))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestSolveBatchCtxCancelledLeavesSolverReusable is the acceptance test:
// a cancelled block call of many whole panels returns context.Canceled
// and the Solver keeps serving solves afterwards. The pre-cancelled case
// is deterministic; the mid-batch case cancels while a large batch is in
// flight.
func TestSolveBatchCtxCancelledLeavesSolverReusable(t *testing.T) {
	plan := testPlan(t, "grid2d", 500, 8)
	B, want := manufactured(t, plan, 9, 71) // panels of 8 and 1
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()

	// Deterministic: the context is dead before dispatch begins.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.SolveBlock(ctx, B); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled batch: err = %v, want context.Canceled", err)
	}

	// Mid-batch: a batch of thousands of unbuffered dispatches, cancelled
	// from another goroutine. Scheduling jitter can delay the cancel past
	// a fast batch, so shrink the delay until the cancel lands mid-flight
	// — every attempt asserts the full contract either way.
	big := make([][]float64, 8192)
	for i := range big {
		big[i] = B[i%len(B)]
	}
	cancelled := false
	for delay := 2 * time.Millisecond; delay >= 0 && !cancelled; delay /= 2 {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		_, err := solver.SolveBlock(ctx, big)
		switch {
		case errors.Is(err, context.Canceled):
			cancelled = true
		case err == nil:
			// Batch won the race; try again with a faster cancel.
		default:
			t.Fatalf("mid-batch cancel: err = %v, want context.Canceled or nil", err)
		}
		if delay == 0 {
			break
		}
	}
	if !cancelled {
		t.Fatal("cancel never interrupted the batch, even immediately")
	}

	// The Solver (and its pool) must be fully usable afterwards.
	x, err := solver.Solve(B[0])
	if err != nil {
		t.Fatalf("solver unusable after cancelled batch: %v", err)
	}
	assertExact(t, "post-cancel solve", x, want[0])
	X, err := solver.SolveBlock(context.Background(), B)
	if err != nil {
		t.Fatal(err)
	}
	for r := range X {
		assertExact(t, "post-cancel batch", X[r], want[r])
	}
}

func TestSolveCtxAndSolveUpperCtxHonorDeadline(t *testing.T) {
	plan := testPlan(t, "grid2d", 500, 8)
	b := make([]float64, plan.N())
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	x := make([]float64, plan.N())
	if err := solver.SolveIntoCtx(ctx, x, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveIntoCtx: err = %v, want DeadlineExceeded", err)
	}
	if err := solver.SolveUpperIntoCtx(ctx, x, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveUpperIntoCtx: err = %v, want DeadlineExceeded", err)
	}
	if _, err := solver.Solve(b); err != nil {
		t.Fatalf("solver unusable after expired-deadline solves: %v", err)
	}
}

// TestSolveManyCtxMidStreamCancel: cancelling the context of a SolveSeq
// stream over an endless iterator ends it with a final context.Canceled
// result, and the Solver stays usable.
func TestSolveManyCtxMidStreamCancel(t *testing.T) {
	plan := testPlan(t, "grid3d", 800, 8)
	B, want := manufactured(t, plan, 3, 37)
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	endless := func(yield func([]float64) bool) {
		for i := 0; yield(B[i%len(B)]); i++ {
		}
	}
	var last SolveResult
	n := 0
	for i, res := range solver.SolveSeq(ctx, endless) {
		if i == 0 {
			if res.Err != nil {
				t.Fatalf("first result: %v", res.Err)
			}
			assertExact(t, "first streamed", res.X, want[0])
			cancel()
		}
		last = res
		if n++; n > 3 {
			t.Fatal("stream did not end after cancellation")
		}
	}
	if !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("stream ended with %v, want context.Canceled", last.Err)
	}
	x, err := solver.Solve(B[1])
	if err != nil {
		t.Fatalf("solver unusable after cancelled stream: %v", err)
	}
	assertExact(t, "post-cancel solve", x, want[1])
}

// TestSolveManyCloseDrainsProducer: when the Solver is closed mid-stream
// (no context involved), SolveSeq keeps drawing — reporting ErrClosed per
// vector — so the iterator runs to completion and the stream terminates.
func TestSolveManyCloseDrainsProducer(t *testing.T) {
	plan := testPlan(t, "grid2d", 400, 8)
	B, _ := manufactured(t, plan, 2, 53)
	solver := plan.NewSolver(WithWorkers(2))

	const total = 50
	produced := false
	bs := func(yield func([]float64) bool) {
		for i := 0; i < total; i++ {
			if !yield(B[i%len(B)]) {
				return
			}
		}
		produced = true
	}
	got, closedErrs := 0, 0
	for i, res := range solver.SolveSeq(context.Background(), bs) {
		got++
		switch {
		case i == 0:
			if res.Err != nil {
				t.Fatalf("first result: %v", res.Err)
			}
			solver.Close()
		case errors.Is(res.Err, ErrClosed):
			closedErrs++
		default:
			t.Fatalf("result %d after Close: %v, want ErrClosed", i, res.Err)
		}
	}
	if got != total || closedErrs != total-1 {
		t.Fatalf("received %d results (%d ErrClosed), want %d (%d)", got, closedErrs, total, total-1)
	}
	if !produced {
		t.Fatal("iterator not drained to completion")
	}
}

// TestSolveSeqIteratorPanicAndFeedback: SolveSeq runs the caller's
// iterator on the caller's goroutine, one vector at a time. A panic in
// the iterator therefore reaches the caller after the results already
// drawn, instead of silently ending the stream; and a stream whose next
// vector is computed from the previous result works, because each result
// is yielded before the next vector is drawn.
func TestSolveSeqIteratorPanicAndFeedback(t *testing.T) {
	plan := testPlan(t, "grid2d", 400, 8)
	B, want := manufactured(t, plan, 2, 61)
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()

	panicky := func(yield func([]float64) bool) {
		for _, b := range B {
			if !yield(b) {
				return
			}
		}
		panic("iterator failed")
	}
	got := 0
	recovered := func() (p any) {
		defer func() { p = recover() }()
		for i, res := range solver.SolveSeq(context.Background(), panicky) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			assertExact(t, "before panic", res.X, want[i])
			got++
		}
		return nil
	}()
	if recovered != "iterator failed" || got != len(B) {
		t.Fatalf("got %d results and panic %v, want %d results and the iterator's panic", got, recovered, len(B))
	}

	// Feedback: each right-hand side is the previous solution.
	var prev []float64
	const steps = 4
	feedback := iter.Seq[[]float64](func(yield func([]float64) bool) {
		b := B[0]
		for k := 0; k < steps; k++ {
			if k > 0 {
				if prev == nil {
					t.Errorf("vector %d drawn before result %d was delivered", k, k-1)
					return
				}
				b, prev = prev, nil
			}
			if !yield(b) {
				return
			}
		}
	})
	b := B[0]
	n := 0
	for _, res := range solver.SolveSeq(context.Background(), feedback) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		seq, err := plan.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, "feedback", res.X, seq)
		prev, b = res.X, res.X
		n++
	}
	if n != steps {
		t.Fatalf("feedback stream gave %d results, want %d", n, steps)
	}
}

func TestSolveSeqOrderedResults(t *testing.T) {
	plan := testPlan(t, "grid3d", 900, 8)
	B, want := manufactured(t, plan, 24, 43)
	solver := plan.NewSolver(WithWorkers(3))
	defer solver.Close()
	seen := 0
	for i, res := range solver.SolveSeq(context.Background(), slices.Values(B)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if i != seen {
			t.Fatalf("index %d out of order (want %d)", i, seen)
		}
		assertExact(t, "seq", res.X, want[i])
		seen++
	}
	if seen != len(B) {
		t.Fatalf("iterated %d results, want %d", seen, len(B))
	}
}

func TestSolveSeqEarlyBreakReleasesPool(t *testing.T) {
	plan := testPlan(t, "grid3d", 900, 8)
	B, want := manufactured(t, plan, 64, 47)
	solver := plan.NewSolver(WithWorkers(3))
	defer solver.Close()
	for i, res := range solver.SolveSeq(context.Background(), slices.Values(B)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if i == 2 {
			break // must cancel the stream, not deadlock the pool
		}
	}
	// The pool must be free for new work immediately.
	x, err := solver.Solve(B[0])
	if err != nil {
		t.Fatal(err)
	}
	assertExact(t, "post-break solve", x, want[0])
}

func TestDimensionSentinelAcrossFacade(t *testing.T) {
	plan := testPlan(t, "grid2d", 400, 8)
	short := make([]float64, plan.N()-3)
	full := make([]float64, plan.N())
	if _, err := plan.Solve(short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Plan.Solve: %v", err)
	}
	if _, err := plan.SolveUpper(short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Plan.SolveUpper: %v", err)
	}
	if _, err := plan.SolveSequential(short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Plan.SolveSequential: %v", err)
	}
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()
	if _, err := solver.Solve(short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.Solve: %v", err)
	}
	if _, err := solver.SolveUpper(short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveUpper: %v", err)
	}
	// One bad vector fails the whole batch before any dispatch.
	ctx := context.Background()
	if _, err := solver.SolveBlock(ctx, [][]float64{full, short, full}); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveBlock: %v", err)
	}
	// The Into-variants validate the same way, including solution vectors.
	if err := solver.SolveInto(short, full); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveInto: %v", err)
	}
	if err := solver.SolveIntoCtx(ctx, full, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveIntoCtx: %v", err)
	}
	if err := solver.SolveUpperInto(full, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveUpperInto: %v", err)
	}
	if err := solver.ApplySGSInto(short, full); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.ApplySGSInto: %v", err)
	}
	other := make([]float64, plan.N())
	if err := solver.SolveBlockInto(ctx, [][]float64{other, short}, [][]float64{full, full}); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveBlockInto short solution: %v", err)
	}
	// Untouched: validation failed before any dispatch.
	for i := range other {
		if other[i] != 0 {
			t.Fatal("SolveBlockInto wrote output despite failed validation")
		}
	}
	if err := solver.SolveUpperBlockInto(ctx, [][]float64{full}, [][]float64{full, full}); !errors.Is(err, ErrDimension) {
		t.Fatalf("Solver.SolveUpperBlockInto length mismatch: %v", err)
	}
	// Preconditioners validate too.
	if err := NewJacobi(plan).Apply(full, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("Jacobi.Apply: %v", err)
	}
	if err := NewSGS(solver).Apply(full, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("SGS.Apply: %v", err)
	}
}

func TestClosedSentinelAcrossFacade(t *testing.T) {
	plan := testPlan(t, "grid2d", 400, 8)
	solver := plan.NewSolver(WithWorkers(2))
	b := make([]float64, plan.N())
	solver.Close()
	if _, err := solver.Solve(b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Solve after Close: %v", err)
	}
	if err := solver.SolveIntoCtx(context.Background(), b, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("SolveIntoCtx after Close: %v", err)
	}
	if _, err := solver.SolveBlock(context.Background(), [][]float64{b, b}); !errors.Is(err, ErrClosed) {
		t.Fatalf("SolveBlock after Close: %v", err)
	}
}

// TestPreconditionersMatchManualApplications pins the Preconditioner
// implementations to their definitions through the public API.
func TestPreconditionersMatchManualApplications(t *testing.T) {
	plan := testPlan(t, "grid3d", 700, 8)
	solver := plan.NewSolver(WithWorkers(2))
	defer solver.Close()
	r := make([]float64, plan.N())
	for i := range r {
		r[i] = float64(i%9) - 4
	}

	// Jacobi: z = r / diag.
	z := make([]float64, plan.N())
	if err := NewJacobi(plan).Apply(z, r); err != nil {
		t.Fatal(err)
	}
	d := plan.Diagonal()
	for i := range z {
		if z[i] != r[i]/d[i] {
			t.Fatalf("jacobi mismatch at %d", i)
		}
	}

	// SGS: forward sweep, diagonal scale, backward sweep, bitwise.
	y, err := plan.SolveSequential(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		y[i] *= d[i]
	}
	want, err := solver.SolveUpper(y)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewSGS(solver).Apply(z, r); err != nil {
		t.Fatal(err)
	}
	assertExact(t, "sgs precond", z, want)

	// IC(0): must equal the factor plan's two sweeps bitwise.
	ic, err := NewIC0(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	y, err = ic.Factor().SolveSequential(r)
	if err != nil {
		t.Fatal(err)
	}
	wantZ := make([]float64, plan.N())
	if err := ic.solver.SolveUpperInto(wantZ, y); err != nil {
		t.Fatal(err)
	}
	if err := ic.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	assertExact(t, "ic0 precond", z, wantZ)
}
