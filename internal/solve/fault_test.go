package solve

import (
	"context"
	"errors"
	"testing"

	"stsk/internal/faultinject"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/panicsafe"
)

// These tests drive the engine through internal/faultinject and assert
// the containment contract: a kernel panic (or injected job fault) turns
// into an error wrapping panicsafe.ErrInternal (or the injected error),
// every completion counter and done channel still fires (no deadlock),
// and the engine stays fully usable afterwards.

func withFaults(t *testing.T, spec string, seed uint64) {
	t.Helper()
	if err := faultinject.Enable(spec, seed); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faultinject.Disable)
}

// afterFaults verifies the engine recovers completely once injection is
// disabled: a clean solve must match Sequential bitwise.
func afterFaults(t *testing.T, e *Engine, p *order.Plan) {
	t.Helper()
	faultinject.Disable()
	B, want := randomRHS(p, 1, 99)
	x, err := solveVec(e, B[0])
	if err != nil {
		t.Fatalf("engine unusable after contained fault: %v", err)
	}
	assertBitwise(t, "post-fault", x, want[0])
}

// TestCoopSolveContainsPanic: a panic in every worker's share of a
// cooperative panel solve fails that solve with ErrInternal.
func TestCoopSolveContainsPanic(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 4)
	defer e.Close()
	B, _ := randomRHS(p, 4, 5)

	withFaults(t, "engine.job:panic", 1)
	err := e.SolveBlockIntoCtx(context.Background(), make2d(len(B), a.N), B)
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from panicking coop panel solve, got %v", err)
	}
	afterFaults(t, e, p)
}

func TestCoopSolveReportsInjectedError(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 3)
	defer e.Close()
	B, _ := randomRHS(p, 1, 5)

	withFaults(t, "engine.job:error", 1)
	err := e.SolveIntoCtx(context.Background(), make([]float64, a.N), B[0])
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected error, got %v", err)
	}
	afterFaults(t, e, p)
}

func TestGraphSolveContainsPanic(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 4)
	defer e.Close()
	B, _ := randomRHS(p, 1, 7)

	withFaults(t, "engine.job:panic", 1)
	err := e.SolveUpperIntoCtx(context.Background(), make([]float64, a.N), B[0])
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from panicking graph solve, got %v", err)
	}
	afterFaults(t, e, p)
}

func TestBatchSolveContainsPanicPerMember(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 4)
	defer e.Close()
	B, _ := randomRHS(p, 7, 11)
	X := make2d(len(B), a.N)

	// Panic on every panel of a call carved into 4 + 2 + 1 columns: the
	// call must complete (counters fire) and report ErrInternal instead of
	// deadlocking on a dead member.
	withFaults(t, "engine.job:panic", 1)
	err := e.SolveBlockIntoCtx(context.Background(), X, B)
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from panicking batch, got %v", err)
	}
	afterFaults(t, e, p)
}

func TestBatchSolvePartialPanicSparesMates(t *testing.T) {
	a := gen.Grid2D(12, 12)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 4)
	defer e.Close()
	B, want := randomRHS(p, 16, 13)
	X := make2d(len(B), a.N)

	// Exactly one of the two 8-wide panels panics; the call reports the
	// failure, the other panel's completion still fires, and exactly the
	// failed panel's eight columns are left unsolved.
	withFaults(t, "engine.job:panic:after=1,count=1", 1)
	err := e.SolveBlockIntoCtx(context.Background(), X, B)
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from partially panicking batch, got %v", err)
	}
	solved := 0
	for r := range X {
		if X[r][0] == want[r][0] {
			assertBitwise(t, "surviving panel column", X[r], want[r])
			solved++
		}
	}
	if solved != len(B)-8 {
		t.Fatalf("%d of %d columns solved, want all but the failed panel's 8", solved, len(B))
	}
	afterFaults(t, e, p)
}

func TestSwapInjectedFaultLeavesOldEpoch(t *testing.T) {
	a := gen.Grid2D(10, 10)
	p := planFor(t, a, order.STS3)
	v := NewValues(p.S)
	e := newEngineVals(t, v, 2)
	defer e.Close()
	seqBefore := v.Version()

	withFaults(t, "epoch.swap:error", 1)
	val := make([]float64, len(p.S.L.Val))
	copy(val, p.S.L.Val)
	if err := v.Swap(val); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("want injected swap error, got %v", err)
	}
	if v.Version() != seqBefore {
		t.Fatal("failed swap must not publish a new epoch")
	}
	faultinject.Disable()
	if err := v.Swap(val); err != nil {
		t.Fatalf("swap after fault cleared: %v", err)
	}
	if v.Version() != seqBefore+1 {
		t.Fatal("clean swap must publish")
	}
}

func TestDegenerateSolveContainsPanic(t *testing.T) {
	a := gen.Grid2D(10, 10)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 1) // degenerate localSweep path
	defer e.Close()
	B, _ := randomRHS(p, 1, 23)

	withFaults(t, "engine.job:panic", 1)
	err := e.SolveIntoCtx(context.Background(), make([]float64, a.N), B[0])
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from degenerate path, got %v", err)
	}
	afterFaults(t, e, p)
}
