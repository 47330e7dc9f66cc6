package stsk

// Acceptance tests for the solve engine: block calls of many right-hand
// sides and SolveSeq streams must match per-RHS SolveSequential bitwise
// across all four methods and several generator classes, and one Solver
// must tolerate concurrent solves (run these under -race).

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// manufactured returns nrhs right-hand sides for the plan plus the exact
// per-RHS sequential solutions they must reproduce bitwise.
func manufactured(t *testing.T, plan *Plan, nrhs int, seed int64) (B, want [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < nrhs; r++ {
		xTrue := make([]float64, plan.N())
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		B = append(B, plan.RHSFor(xTrue))
	}
	for _, b := range B {
		x, err := plan.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, x)
	}
	return B, want
}

func assertExact(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %v, want bitwise %v", label, i, got[i], want[i])
		}
	}
}

// TestSolverBatchMatchesSequential is the headline acceptance test:
// SolveBlock over 32 right-hand sides — as width-1 whole panels and as
// the default 8-wide panels — is bitwise identical to looped sequential
// solves on every method and several matrix classes.
func TestSolverBatchMatchesSequential(t *testing.T) {
	const nrhs = 32
	for _, class := range []string{"grid2d", "grid3d", "trimesh", "roadnet"} {
		mat, err := Generate(class, 900)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods() {
			plan, err := Build(mat, m, WithRowsPerSuper(8))
			if err != nil {
				t.Fatalf("%s/%v: %v", class, m, err)
			}
			B, want := manufactured(t, plan, nrhs, 17)
			for _, width := range []int{1, 8} {
				solver := plan.NewSolver(WithWorkers(4), WithBlockWidth(width))
				X, err := solver.SolveBlock(context.Background(), B)
				if err != nil {
					t.Fatalf("%s/%v: %v", class, m, err)
				}
				for r := range X {
					assertExact(t, class+"/"+m.String(), X[r], want[r])
				}
				solver.Close()
			}
		}
	}
}

func TestSolverSolveManyMatchesSequential(t *testing.T) {
	mat, err := Generate("grid3d", 1200)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		plan, err := Build(mat, m, WithRowsPerSuper(8))
		if err != nil {
			t.Fatal(err)
		}
		B, want := manufactured(t, plan, 40, 29)
		solver := plan.NewSolver(WithWorkers(3))
		r := 0
		for _, res := range solver.SolveSeq(context.Background(), slices.Values(B)) {
			if res.Err != nil {
				t.Fatal(res.Err)
			}
			assertExact(t, m.String(), res.X, want[r])
			r++
		}
		if r != len(B) {
			t.Fatalf("%v: streamed %d results, want %d", m, r, len(B))
		}
		solver.Close()
	}
}

func TestSolverPooledSingleSolvesMatchSequential(t *testing.T) {
	mat, err := Generate("trimesh", 800)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	B, want := manufactured(t, plan, 5, 3)
	solver := plan.NewSolver(WithWorkers(4))
	defer solver.Close()
	x := make([]float64, plan.N())
	for rep := 0; rep < 3; rep++ { // pool reuse across repeats
		for r := range B {
			if err := solver.SolveInto(x, B[r]); err != nil {
				t.Fatal(err)
			}
			assertExact(t, "pooled", x, want[r])
		}
	}
	// Plan.Solve rides the plan's shared solver and must agree too.
	for r := range B {
		x, err := plan.Solve(B[r])
		if err != nil {
			t.Fatal(err)
		}
		assertExact(t, "plan-shared", x, want[r])
	}
}

func TestSolverApplySGSMatchesManualSweeps(t *testing.T) {
	mat, err := Generate("grid3d", 800)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const nrhs = 6
	R := make([][]float64, nrhs)
	want := make([][]float64, nrhs)
	d := plan.Diagonal()
	for r := range R {
		R[r] = make([]float64, plan.N())
		for i := range R[r] {
			R[r][i] = rng.NormFloat64()
		}
		y, err := plan.SolveSequential(R[r])
		if err != nil {
			t.Fatal(err)
		}
		for i := range y {
			y[i] *= d[i]
		}
		if want[r], err = solveUpperWith(plan, y, WithWorkers(1)); err != nil {
			t.Fatal(err)
		}
	}
	solver := plan.NewSolver(WithWorkers(3))
	defer solver.Close()
	z := make([]float64, plan.N())
	for r := range R {
		if err := solver.ApplySGSInto(z, R[r]); err != nil {
			t.Fatal(err)
		}
		assertExact(t, "sgs-coop", z, want[r])
	}
}

// TestSolverConcurrentUse is the facade-level race test: one Solver,
// many goroutines mixing every solve shape.
func TestSolverConcurrentUse(t *testing.T) {
	mat, err := Generate("grid3d", 700)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	B, want := manufactured(t, plan, 8, 59)
	solver := plan.NewSolver(WithWorkers(4))
	defer solver.Close()
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				switch g % 4 {
				case 0:
					x, err := solver.Solve(B[it%len(B)])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range x {
						if x[i] != want[it%len(B)][i] {
							t.Errorf("solve mismatch at %d", i)
							return
						}
					}
				case 1:
					X, err := solver.SolveBlock(context.Background(), B)
					if err != nil {
						t.Error(err)
						return
					}
					for r := range X {
						for i := range X[r] {
							if X[r][i] != want[r][i] {
								t.Errorf("batch mismatch rhs %d at %d", r, i)
								return
							}
						}
					}
				case 2:
					if _, err := solver.SolveUpper(B[it%len(B)]); err != nil {
						t.Error(err)
						return
					}
				default:
					if err := solver.ApplySGSInto(make([]float64, plan.N()), B[it%len(B)]); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPlanConcurrentLazyInit races the plan's lazily built caches
// (shared solver, upper solver, symmetric matrix) from many goroutines —
// run under -race.
func TestPlanConcurrentLazyInit(t *testing.T) {
	mat, err := Generate("grid2d", 500)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	b := plan.RHSFor(make([]float64, plan.N()))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 4 {
			case 0:
				if _, err := plan.SolveUpper(b); err != nil {
					t.Error(err)
				}
			case 1:
				s := plan.NewSolver(WithWorkers(2))
				if _, err := s.SolveUpper(b); err != nil {
					t.Error(err)
				}
				s.Close()
			case 2:
				y := make([]float64, plan.N())
				plan.ApplySymmetric(y, b)
			default:
				if _, err := plan.Solve(b); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSolversOwnNoGoroutines pins that solvers start no goroutines: once
// the process-wide helper set has grown for the default worker count,
// plans solved through Plan.Solve and through a NewSolver of their own
// leave the goroutine count where it was, however many stay resident.
func TestSolversOwnNoGoroutines(t *testing.T) {
	mat, err := Generate("grid2d", 400)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, mat.N())
	solveBoth := func() *Solver {
		plan, err := Build(mat, STS3, WithRowsPerSuper(8))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.Solve(b); err != nil {
			t.Fatal(err)
		}
		s := plan.NewSolver()
		if _, err := s.Solve(b); err != nil {
			t.Fatal(err)
		}
		return s
	}
	solveBoth() // warm: grows the helper set for the default worker count
	base := runtime.NumGoroutine()
	var resident []*Solver
	for i := 0; i < 40; i++ {
		resident = append(resident, solveBoth())
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("40 resident plans raised the goroutine count from %d to %d", base, g)
	}
	runtime.KeepAlive(resident)
}

func TestSolverClose(t *testing.T) {
	mat, err := Generate("grid2d", 400)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	solver := plan.NewSolver(WithWorkers(2))
	b := make([]float64, plan.N())
	if _, err := solver.Solve(b); err != nil {
		t.Fatal(err)
	}
	solver.Close()
	solver.Close() // idempotent
	if _, err := solver.Solve(b); err == nil {
		t.Fatal("solve after Close succeeded")
	}
}
