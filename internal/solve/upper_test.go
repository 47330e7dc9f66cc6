package solve

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"stsk/internal/csrk"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/sparse"
)

// TestUpperSolverMatchesSequentialBackward: the engine's backward sweep
// solves L′ᵀx = b correctly at every worker count, bitwise equal to the
// backward-substitution oracle.
func TestUpperSolverMatchesSequentialBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	mats := map[string]*sparse.CSR{
		"trimesh": gen.TriMesh(16, 16, 3),
		"grid3d":  gen.Grid3D(6, 6, 6),
		"kkt3d":   gen.KKT3D(6, 6, 6),
	}
	for name, a := range mats {
		for _, m := range order.Methods() {
			p, err := order.Build(a, order.Options{Method: m, RowsPerSuper: 8})
			if err != nil {
				t.Fatal(err)
			}
			xTrue := make([]float64, a.N)
			for i := range xTrue {
				xTrue[i] = rng.NormFloat64()
			}
			u := p.S.L.Transpose()
			b := make([]float64, a.N)
			u.MatVec(b, xTrue)
			ref, err := sparse.BackwardSubstitution(u, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 8} {
				e := newEngine(t, p, workers)
				x, err := solveUpperVec(e, b)
				e.Close()
				if err != nil {
					t.Fatal(err)
				}
				if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-9 {
					t.Fatalf("%s/%v/w%d: error %g", name, m, workers, d)
				}
				assertBitwise(t, name+"/"+m.String()+"/upper", x, ref)
			}
		}
	}
}

// TestUpperSolverErrors: backward sweeps reject bad lengths with
// ErrDimension, and the zero diagonal they would divide by is refused
// where a structure is built (csrk.Build), so no Values ever holds one.
func TestUpperSolverErrors(t *testing.T) {
	a := gen.Grid2D(6, 6)
	p, err := order.Build(a, order.Options{Method: order.STS3, RowsPerSuper: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, p, 2)
	defer e.Close()
	if _, err := solveUpperVec(e, make([]float64, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("short rhs: %v, want ErrDimension", err)
	}
	x := make([]float64, 2)
	if err := e.SolveUpperIntoCtx(context.Background(), x, make([]float64, a.N)); !errors.Is(err, ErrDimension) {
		t.Fatalf("short x: %v, want ErrDimension", err)
	}

	l := &sparse.CSR{N: 2, RowPtr: []int{0, 1, 3}, Col: []int{0, 0, 1}, Val: []float64{0, 1, 1}}
	if _, err := csrk.Build(l, []int{0, 2}, []int{0, 1}); err == nil {
		t.Fatal("csrk.Build accepted a zero diagonal")
	}
}

func TestForwardBackwardSGSParallel(t *testing.T) {
	// Full parallel SGS application: L y = r, then Lᵀ z = D y; verify
	// M z = r with M = L D⁻¹ Lᵀ.
	a := gen.TriMesh(20, 20, 5)
	p, err := order.Build(a, order.Options{Method: order.STS3, RowsPerSuper: 8})
	if err != nil {
		t.Fatal(err)
	}
	l := p.S.L
	e := newEngine(t, p, 4)
	defer e.Close()
	rng := rand.New(rand.NewSource(23))
	r := make([]float64, a.N)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	y, err := solveVec(e, r)
	if err != nil {
		t.Fatal(err)
	}
	dy := make([]float64, a.N)
	for i := 0; i < a.N; i++ {
		dy[i] = l.Val[l.RowPtr[i+1]-1] * y[i]
	}
	z, err := solveUpperVec(e, dy)
	if err != nil {
		t.Fatal(err)
	}
	// Apply M forward: L (D^{-1} (L^T z)) and compare with r.
	u := l.Transpose()
	uz := make([]float64, a.N)
	u.MatVec(uz, z)
	for i := range uz {
		uz[i] /= l.Val[l.RowPtr[i+1]-1]
	}
	lr := make([]float64, a.N)
	l.MatVec(lr, uz)
	if d := sparse.MaxAbsDiff(lr, r); d > 1e-8 {
		t.Fatalf("parallel SGS application error %g", d)
	}
}
