// Preconditioned conjugate gradient — the application that motivates fast
// sparse triangular solution (paper §1) — built on the library's krylov
// package. Each preconditioner application is one or two pack-parallel
// STS-3 triangular sweeps on a persistent stsk.Solver, so the triangular
// solution dominates each iteration exactly as in a production PCG.
//
// The example sweeps the built-in preconditioners (Jacobi, symmetric
// Gauss–Seidel, incomplete Cholesky IC(0)) against unpreconditioned CG,
// watching convergence through a per-iteration callback, and bounds the
// whole run with a context deadline.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"time"

	"stsk"
	"stsk/krylov"
)

func main() {
	mat, err := stsk.Generate("grid3d", 30000)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		log.Fatal(err)
	}
	n := plan.N()
	fmt.Printf("PCG on %d unknowns (%d nnz), preconditioners via STS-3 triangular solves\n",
		n, mat.NNZ())

	// Manufactured problem: A′ xTrue = rhs.
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i))
	}
	rhs := make([]float64, n)
	if err := plan.ApplySymmetric(rhs, xTrue); err != nil {
		log.Fatal(err)
	}

	// One persistent solve engine serves every SGS application; IC(0)
	// holds its own pool over the factor plan.
	solver := plan.NewSolver()
	defer solver.Close()
	ic0, err := stsk.NewIC0(plan)
	if err != nil {
		log.Fatal(err)
	}
	defer ic0.Close()

	// The whole Krylov run is bounded by one deadline; a production
	// service would pass its request context here instead.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var baseline int
	for _, pc := range []struct {
		name    string
		precond stsk.Preconditioner // nil = unpreconditioned
	}{
		{"unpreconditioned", nil},
		{"Jacobi", stsk.NewJacobi(plan)},
		{"SGS", stsk.NewSGS(solver)},
		{"IC(0)", ic0},
	} {
		trace := func(it krylov.Iteration) {
			if it.K%25 == 0 {
				fmt.Printf("  %-17s iter %4d  rel.residual %.3e\n", pc.name, it.K, it.Residual)
			}
		}
		x, stats, err := krylov.CG(ctx, plan, rhs,
			krylov.WithPreconditioner(pc.precond),
			krylov.WithTolerance(1e-10),
			krylov.WithMaxIterations(5000),
			krylov.WithCallback(trace))
		if err != nil {
			log.Fatalf("%s: %v", pc.name, err)
		}
		maxErr := 0.0
		for i := range x {
			if e := math.Abs(x[i] - xTrue[i]); e > maxErr {
				maxErr = e
			}
		}
		if pc.precond == nil {
			baseline = stats.Iterations
		}
		fmt.Printf("%-17s %4d iterations (%.1fx vs plain CG), max error %.3g\n",
			pc.name, stats.Iterations, float64(baseline)/float64(stats.Iterations), maxErr)
	}
}
