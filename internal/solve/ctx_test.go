package solve

// Engine-level context-cancellation and sentinel-error tests. The facade
// tests in the stsk package cover the same semantics one layer up; these
// pin the engine contract directly.

import (
	"context"
	"errors"
	"testing"
	"time"

	"stsk/internal/gen"
	"stsk/internal/order"
)

// TestEngineBatchCtxPreCancelled: a multi-panel call under a dead
// context dispatches nothing and leaves the engine usable.
func TestEngineBatchCtxPreCancelled(t *testing.T) {
	p := planFor(t, gen.Grid2D(20, 20), order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	B, want := randomRHS(p, 3, 5) // panels of 2 and 1
	X := make2d(len(B), p.S.L.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.SolveBlockIntoCtx(ctx, X, B); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// No job was dispatched, so no solution vector may have been touched.
	for i := range X {
		for j := range X[i] {
			if X[i][j] != 0 {
				t.Fatalf("rhs %d written despite pre-cancelled context", i)
			}
		}
	}
	// The engine stays fully usable.
	if err := e.SolveBlockIntoCtx(context.Background(), X, B); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		assertBitwise(t, "post-cancel batch", X[i], want[i])
	}
}

func TestEngineCoopCtxDeadline(t *testing.T) {
	p := planFor(t, gen.Grid2D(20, 20), order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	b := make([]float64, p.S.L.N)
	x := make([]float64, p.S.L.N)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := e.SolveIntoCtx(ctx, x, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forward: err = %v, want DeadlineExceeded", err)
	}
	if err := e.SolveUpperIntoCtx(ctx, x, b); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("backward: err = %v, want DeadlineExceeded", err)
	}
	if err := e.SolveIntoCtx(context.Background(), x, b); err != nil {
		t.Fatalf("engine unusable after expired-deadline solves: %v", err)
	}
}

func TestEngineDimensionSentinel(t *testing.T) {
	p := planFor(t, gen.Grid2D(12, 12), order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	ctx := context.Background()
	n := p.S.L.N
	short := make([]float64, n-1)
	full := make([]float64, n)
	if err := e.SolveIntoCtx(ctx, full, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("coop short rhs: %v", err)
	}
	if err := e.SolveUpperIntoCtx(ctx, short, full); !errors.Is(err, ErrDimension) {
		t.Fatalf("upper short x: %v", err)
	}
	if err := e.SolveBlockIntoCtx(ctx, [][]float64{full}, [][]float64{short}); !errors.Is(err, ErrDimension) {
		t.Fatalf("batch short rhs: %v", err)
	}
	if err := e.SolveBlockIntoCtx(ctx, [][]float64{full}, [][]float64{full, full}); !errors.Is(err, ErrDimension) {
		t.Fatalf("batch length mismatch: %v", err)
	}
	if _, err := Sequential(p.S, short); !errors.Is(err, ErrDimension) {
		t.Fatalf("sequential short rhs: %v", err)
	}
}

func TestEngineClosedSentinel(t *testing.T) {
	p := planFor(t, gen.Grid2D(12, 12), order.STS3)
	e := newEngine(t, p, 2)
	e.Close()
	ctx := context.Background()
	b := make([]float64, p.S.L.N)
	x := make([]float64, p.S.L.N)
	if err := e.SolveIntoCtx(ctx, x, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("coop after close: %v", err)
	}
	if err := e.SolveBlockIntoCtx(ctx, [][]float64{x, x, x}, [][]float64{b, b, b}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v", err)
	}
}
