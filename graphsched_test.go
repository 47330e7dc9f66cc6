package stsk

import (
	"context"
	"sync"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// blockDiagMatrix wraps the shared corpus block-diagonal builder as a
// facade Matrix: `blocks` disjoint copies of a along the diagonal, the
// wide-DAG shape where barrier scheduling synchronises workers that share
// no data at all.
func blockDiagMatrix(blocks int, a *sparse.CSR) *Matrix {
	return &Matrix{a: testmat.BlockDiag(blocks, a)}
}

func manufacturedRHS(p *Plan, nrhs int) ([][]float64, [][]float64) {
	B := make([][]float64, nrhs)
	want := make([][]float64, nrhs)
	xTrue := make([]float64, p.N())
	for r := range B {
		for i := range xTrue {
			xTrue[i] = float64((i+3*r)%11) - 5
		}
		B[r] = p.RHSFor(xTrue)
		x, err := p.SolveSequential(B[r])
		if err != nil {
			panic(err)
		}
		want[r] = x
	}
	return B, want
}

// TestGraphScheduleBitwiseAllMethods is the facade acceptance gate: for
// all four methods on grid3d and trimesh, graph-scheduled solves — single
// and as width-1 whole panels — must equal Plan.SolveSequential bit for
// bit.
func TestGraphScheduleBitwiseAllMethods(t *testing.T) {
	for _, class := range []string{"grid3d", "trimesh"} {
		mat, err := Generate(class, 3000)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range Methods() {
			p, err := Build(mat, m)
			if err != nil {
				t.Fatalf("%s/%v: %v", class, m, err)
			}
			B, want := manufacturedRHS(p, 4)
			s := p.NewSolver(WithWorkers(4), WithBlockWidth(1))
			for r := range B {
				x, err := s.Solve(B[r])
				if err != nil {
					t.Fatal(err)
				}
				for i := range x {
					if x[i] != want[r][i] {
						t.Fatalf("%s/%v: x[%d] = %v, want bitwise %v", class, m, i, x[i], want[r][i])
					}
				}
			}
			X, err := s.SolveBlock(context.Background(), B)
			if err != nil {
				t.Fatal(err)
			}
			for r := range X {
				for i := range X[r] {
					if X[r][i] != want[r][i] {
						t.Fatalf("%s/%v: batch rhs %d differs at %d", class, m, r, i)
					}
				}
			}
			s.Close()
		}
	}
}

// TestGraphScheduleConcurrentBatches hammers one graph-scheduled Solver
// with concurrent multi-panel calls and single solves from many
// goroutines — the facade race gate.
func TestGraphScheduleConcurrentBatches(t *testing.T) {
	mat, err := Generate("trimesh", 1500)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	B, want := manufacturedRHS(p, 6)
	s := p.NewSolver(WithWorkers(4), WithBlockWidth(2))
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 4; it++ {
				if g%2 == 0 {
					X, err := s.SolveBlock(context.Background(), B)
					if err != nil {
						t.Error(err)
						return
					}
					for r := range X {
						for i := range X[r] {
							if X[r][i] != want[r][i] {
								t.Errorf("batch rhs %d differs at %d", r, i)
								return
							}
						}
					}
				} else {
					x, err := s.Solve(B[it%len(B)])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range x {
						if x[i] != want[it%len(B)][i] {
							t.Errorf("coop solve differs at %d", i)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDefaultScheduleResolvesToGraph: every solver of more than one
// worker schedules over the plan's one task DAG, which its value
// sequence derives once per pattern; on independent blocks the DAG
// exposes their parallelism.
func TestDefaultScheduleResolvesToGraph(t *testing.T) {
	mat := blockDiagMatrix(8, gen.Grid2D(30, 30))
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	dag := p.vals.TaskDAG()
	if p.vals.TaskDAG() != dag {
		t.Fatal("the plan's task DAG is built more than once")
	}
	if pi := dag.Parallelism(); pi < 1.5 {
		t.Fatalf("block-diagonal DAG parallelism %.2f, want >= 1.5", pi)
	}
}

// TestSolverSteadyStateAllocs asserts the facade satellite: warm solvers
// run Into-style solves — single, whole-panel batches and the SGS
// application, at one worker and on the pool — without allocating.
func TestSolverSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	mat, err := Generate("grid3d", 2000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	B, _ := manufacturedRHS(p, 8)
	X := make([][]float64, len(B))
	for i := range X {
		X[i] = make([]float64, p.N())
	}
	x := make([]float64, p.N())
	z := make([]float64, p.N())
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		s    *Solver
	}{
		{"one-worker", p.NewSolver(WithWorkers(1), WithBlockWidth(1))},
		{"graph", p.NewSolver(WithWorkers(4), WithBlockWidth(1))},
	} {
		for i := 0; i < 3; i++ { // warm pools, scratch, lazy transpose
			if err := tc.s.SolveInto(x, B[0]); err != nil {
				t.Fatal(err)
			}
			if err := tc.s.SolveBlockInto(ctx, X, B); err != nil {
				t.Fatal(err)
			}
			if err := tc.s.ApplySGSInto(z, B[0]); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := tc.s.SolveInto(x, B[0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: SolveInto allocates %.1f/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := tc.s.SolveBlockInto(ctx, X, B); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: SolveBlockInto allocates %.1f/op, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := tc.s.ApplySGSInto(z, B[0]); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: ApplySGSInto allocates %.1f/op, want 0", tc.name, n)
		}
		tc.s.Close()
	}
}
