package solve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/order"
)

// TestEngineLifecycleAfterClose is the consolidated audit of the Close
// contract the serve registry leans on: after Close, EVERY entry point —
// forward and upper, one vector, one cooperative panel, several whole
// panels — fails with ErrClosed (matched via errors.Is), and Close itself
// is idempotent, sequentially and concurrently.
func TestEngineLifecycleAfterClose(t *testing.T) {
	a := gen.Grid2D(10, 10)
	p := planFor(t, a, order.STS3)
	n := a.N
	vec := func() []float64 { return make([]float64, n) }
	panel := func() [][]float64 { return [][]float64{vec(), vec()} }         // one 2-wide panel
	panels := func() [][]float64 { return [][]float64{vec(), vec(), vec()} } // panels of 2 and 1
	ctx := context.Background()

	e := newEngine(t, p, 2)
	// Warm the upper path before Close so building the transpose is not
	// the error.
	if _, err := solveUpperVec(e, vec()); err != nil {
		t.Fatal(err)
	}

	// Double Close: idempotent sequentially...
	e.Close()
	e.Close()
	// ...and concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); e.Close() }()
	}
	wg.Wait()

	paths := []struct {
		name string
		call func() error
	}{
		{"SolveIntoCtx", func() error { return e.SolveIntoCtx(ctx, vec(), vec()) }},
		{"SolveUpperIntoCtx", func() error { return e.SolveUpperIntoCtx(ctx, vec(), vec()) }},
		{"SolveBlockIntoCtx/one", func() error { return e.SolveBlockIntoCtx(ctx, [][]float64{vec()}, [][]float64{vec()}) }},
		{"SolveBlockIntoCtx/panel", func() error { return e.SolveBlockIntoCtx(ctx, panel(), panel()) }},
		{"SolveBlockIntoCtx/whole", func() error { return e.SolveBlockIntoCtx(ctx, panels(), panels()) }},
		{"SolveUpperBlockIntoCtx/panel", func() error { return e.SolveUpperBlockIntoCtx(ctx, panel(), panel()) }},
		{"SolveUpperBlockIntoCtx/whole", func() error { return e.SolveUpperBlockIntoCtx(ctx, panels(), panels()) }},
	}
	for _, path := range paths {
		if err := path.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", path.name, err)
		}
	}
}

// TestEngineLifecycleWorkerOneAfterClose pins the degenerate layout: a
// one-worker engine skips the pool entirely in panelSolve, so its closed
// check is a separate code path from submit.
func TestEngineLifecycleWorkerOneAfterClose(t *testing.T) {
	a := gen.Grid2D(8, 8)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 1)
	b := make([]float64, a.N)
	e.Close()
	ctx := context.Background()
	if err := e.SolveIntoCtx(ctx, b, b); !errors.Is(err, ErrClosed) {
		t.Errorf("one-worker SolveIntoCtx after Close: err = %v, want ErrClosed", err)
	}
	if err := e.SolveBlockIntoCtx(ctx, [][]float64{b, b}, [][]float64{b, b}); !errors.Is(err, ErrClosed) {
		t.Errorf("one-worker SolveBlockIntoCtx after Close: err = %v, want ErrClosed", err)
	}
}

// TestEngineCloseVsInFlightBatch races Close against large dispatched
// multi-panel calls — panels of 4, 2 and 1 columns, and of 8: each must either
// complete fully (all solutions bitwise correct) or report ErrClosed —
// never deadlock, never a partial success disguised as a full one.
// Panels already handed to the pool finish.
func TestEngineCloseVsInFlightBatch(t *testing.T) {
	a := gen.Grid2D(14, 14)
	p := planFor(t, a, order.STS3)
	B, want := randomRHS(p, 24, 11)
	for trial := 0; trial < 25; trial++ {
		e := newEngine(t, p, 3)
		X := make2d(len(B), a.N)
		ctx := context.Background()
		errc := make(chan error, 2)
		go func() { errc <- e.SolveBlockIntoCtx(ctx, X[:7], B[:7]) }()
		go func() { errc <- e.SolveBlockIntoCtx(ctx, make2d(len(B), a.N), B) }()
		e.Close() // races the dispatch loops
		err1, err2 := <-errc, <-errc
		for _, err := range []error{err1, err2} {
			if err != nil && !errors.Is(err, ErrClosed) {
				t.Fatalf("trial %d: err = %v, want nil or ErrClosed", trial, err)
			}
		}
		if err1 == nil && err2 == nil {
			// Close landed after both batches: results must be complete.
			for i := range X[:7] {
				for j := range X[i] {
					if X[i][j] != want[i][j] {
						t.Fatalf("trial %d: successful batch has wrong bits at rhs %d index %d", trial, i, j)
					}
				}
			}
		}
	}
}

func make2d(rows, cols int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	return out
}
