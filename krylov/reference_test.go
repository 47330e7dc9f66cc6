package krylov

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"stsk"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// cgReference is CG with one vector pass per operation — three dot
// products, two axpys and the p update: six passes an iteration, where CG
// fuses the two axpys and ‖r‖² into one. CG must equal it bit for bit.
func cgReference(ctx context.Context, plan *stsk.Plan, b []float64, opts ...Option) ([]float64, Stats, error) {
	c := applyOptions(opts)
	n := plan.N()
	x := make([]float64, n)
	bnorm := math.Sqrt(dot(b, b))
	if bnorm == 0 {
		return x, Stats{}, nil
	}
	r := append([]float64(nil), b...)
	z := make([]float64, n)
	applyM := func() error {
		if c.precond == nil {
			copy(z, r)
			return nil
		}
		return c.precond.Apply(z, r)
	}
	if err := applyM(); err != nil {
		return nil, Stats{}, err
	}
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dot(r, z)
	st := Stats{Residual: 1}
	for k := 1; k <= c.maxIter; k++ {
		if err := ctx.Err(); err != nil {
			return x, st, err
		}
		if err := plan.ApplySymmetric(ap, p); err != nil {
			return x, st, err
		}
		alpha := rz / dot(p, ap)
		axpy(x, alpha, p)
		axpy(r, -alpha, ap)
		st.Iterations = k
		st.Residual = math.Sqrt(dot(r, r)) / bnorm
		if st.Residual <= c.tol {
			return x, st, nil
		}
		if err := applyM(); err != nil {
			return x, st, err
		}
		rzNew := dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, st, fmt.Errorf("%w: reference CG after %d iterations", stsk.ErrNotConverged, st.Iterations)
}

func axpy(y []float64, alpha float64, x []float64) {
	for i := range y {
		y[i] += alpha * x[i]
	}
}

// corpusMatrix loads a corpus matrix through the facade. Its values are
// the SPD-by-dominance ones ReadMatrixMarket assigns, which the corpus
// carries already.
func corpusMatrix(t testing.TB, a *sparse.CSR) *stsk.Matrix {
	t.Helper()
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	m, err := stsk.ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// preconditioners returns the four ways CG runs on a plan — none,
// Jacobi, SGS and IC(0) — and a func releasing their solvers.
func preconditioners(t testing.TB, plan *stsk.Plan) (map[string]stsk.Preconditioner, func()) {
	t.Helper()
	solver := plan.NewSolver()
	ic0, err := stsk.NewIC0(plan)
	if err != nil {
		t.Fatal(err)
	}
	pcs := map[string]stsk.Preconditioner{
		"none":   nil,
		"jacobi": stsk.NewJacobi(plan),
		"sgs":    stsk.NewSGS(solver),
		"ic0":    ic0,
	}
	return pcs, func() { solver.Close(); ic0.Close() }
}

func sameVec(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCGMatchesReference: the fused update pass changes no bit. Across
// the corpus (and one matrix whose product is swept in several chunks),
// every method and every preconditioner, CG's solution, Stats and error
// equal the six-pass reference's.
func TestCGMatchesReference(t *testing.T) {
	ctx := context.Background()
	for _, ent := range append(testmat.Corpus(), testmat.Entry{Name: "grid3d-20", A: testmat.Grid3D(20)}) {
		mat := corpusMatrix(t, ent.A)
		for _, method := range stsk.Methods() {
			plan, err := stsk.Build(mat, method)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, plan.N())
			for i := range b {
				b[i] = float64((3*i)%17-8) / 4
			}
			pcs, release := preconditioners(t, plan)
			for name, pc := range pcs {
				label := fmt.Sprintf("%s/%v/%s", ent.Name, method, name)
				opts := []Option{WithPreconditioner(pc), WithTolerance(1e-10), WithMaxIterations(400)}
				x, st, err := CG(ctx, plan, b, opts...)
				wx, wst, werr := cgReference(ctx, plan, b, opts...)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%s: err %v, reference %v", label, err, werr)
				}
				if st != wst {
					t.Fatalf("%s: stats %+v, reference %+v", label, st, wst)
				}
				if !sameVec(x, wx) {
					t.Fatalf("%s: solution differs from the reference's", label)
				}
			}
			release()
		}
	}
}

// TestCGConcurrentSharedPreconditioner: CG solves from several goroutines
// sharing one plan and one IC(0) preconditioner — their products and
// sweeps interleaving on the shared helpers — each equal the solve run
// alone, bit for bit.
func TestCGConcurrentSharedPreconditioner(t *testing.T) {
	plan, _, _ := problem(t, "grid3d", 8000)
	ic0, err := stsk.NewIC0(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer ic0.Close()
	const goroutines = 4
	var bs, want [goroutines][]float64
	var wantSt [goroutines]Stats
	for g := range bs {
		bs[g] = make([]float64, plan.N())
		for i := range bs[g] {
			bs[g][i] = float64((i*(g+3))%19-9) / 7
		}
		want[g], wantSt[g], err = CG(context.Background(), plan, bs[g], WithPreconditioner(ic0))
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range bs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				x, st, err := CG(context.Background(), plan, bs[g], WithPreconditioner(ic0))
				if err != nil {
					t.Error(err)
					return
				}
				if st != wantSt[g] || !sameVec(x, want[g]) {
					t.Errorf("goroutine %d: solve %d differs from the solve run alone (%+v, want %+v)", g, rep, st, wantSt[g])
					return
				}
			}
		}()
	}
	wg.Wait()
}
