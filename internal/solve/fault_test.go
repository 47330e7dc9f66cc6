package solve

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"stsk/internal/csrk"
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

// markRun is a test call kind: each task counts a visit to every row of
// its range, except the task whose range starts at row poison, which
// panics first.
type markRun struct {
	graphRun
	visits []atomic.Int32
	poison int
}

func (r *markRun) rows(lo, hi int) {
	if lo == r.poison {
		panic("test: poisoned task")
	}
	for i := lo; i < hi; i++ {
		r.visits[i].Add(1)
	}
}

// call runs one call of r over up to workers goroutines and requires
// every row visited once, but for rows [badLo, badHi), which no task may
// visit.
func (r *markRun) call(t *testing.T, label string, workers, badLo, badHi int) error {
	t.Helper()
	for i := range r.visits {
		r.visits[i].Store(0)
	}
	err := cooperate(nil, &r.graphRun, workers-1)
	for i := range r.visits {
		want := int32(1)
		if i >= badLo && i < badHi {
			want = 0
		}
		if got := r.visits[i].Load(); got != want {
			t.Fatalf("%s: row %d visited %d times, want %d", label, i, got, want)
		}
	}
	return err
}

// TestGraphRunContainsTaskPanic: a task whose body panics fails its call
// with ErrInternal and leaves exactly its own range undone, on every
// shape of DAG a call runs over — a fine plan DAG (a task with
// predecessors and successors panics), a DAG with no edges like a
// product's chunks or a block call's panels (its mates are unharmed),
// and the one task of a one-worker call — forward and in reverse, at 1,
// 2 and 4 workers. The panicking task still completes, so nothing hangs,
// and the same run then completes a clean call.
func TestGraphRunContainsTaskPanic(t *testing.T) {
	p := planFor(t, gen.Grid2D(16, 16), order.STS3)
	n := p.S.L.N
	fine := order.BuildTaskDAG(p.S, order.TaskDAGOptions{SplitPerPack: 4, MinTaskNNZ: 16})
	mid := 0
	for len(fine.Preds(mid)) == 0 || len(fine.Succs(mid)) == 0 {
		mid++
	}
	var flat csrk.TaskDAG
	bounds := []int32{0}
	for lo := 10; lo < n; lo += 10 {
		bounds = append(bounds, int32(lo))
	}
	independent(&flat, append(bounds, int32(n)))
	helpers.grow(4)
	for _, tc := range []struct {
		name string
		dag  *csrk.TaskDAG
		bad  int
	}{
		{"plan", fine, mid},
		{"no-edges", &flat, flat.NumTasks() / 2},
		{"one-task", oneTask(n), 0},
	} {
		badLo, badHi := tc.dag.TaskRows(tc.bad)
		for _, reverse := range []bool{false, true} {
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/reverse=%v/w=%d", tc.name, reverse, workers)
				r := &markRun{visits: make([]atomic.Int32, n), poison: badLo}
				r.bind(tc.dag, r)
				r.reverse = reverse
				if err := r.call(t, label, workers, badLo, badHi); !errors.Is(err, panicsafe.ErrInternal) {
					t.Fatalf("%s: %v, want ErrInternal", label, err)
				}
				r.poison = -1
				if err := r.call(t, label+"/clean", workers, 0, 0); err != nil {
					t.Fatalf("%s: clean call after the panic: %v", label, err)
				}
			}
		}
	}
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
	e := newEngine(t, p, 1) // one task, swept by the caller alone
	defer e.Close()
	B, _ := randomRHS(p, 1, 23)

	withFaults(t, "engine.job:panic", 1)
	err := e.SolveIntoCtx(context.Background(), make([]float64, a.N), B[0])
	if !errors.Is(err, panicsafe.ErrInternal) {
		t.Fatalf("want ErrInternal from degenerate path, got %v", err)
	}
	afterFaults(t, e, p)
}
