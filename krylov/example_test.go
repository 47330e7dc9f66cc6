package krylov_test

import (
	"context"
	"fmt"
	"log"

	"stsk"
	"stsk/krylov"
)

// ExampleCG solves a manufactured SPD system with symmetric-Gauss–Seidel
// preconditioned conjugate gradient, every triangular sweep running
// pack-parallel on one persistent Solver.
func ExampleCG() {
	mat, err := stsk.Generate("grid3d", 8000)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		log.Fatal(err)
	}

	// Manufactured problem: A′ xTrue = b with xTrue = (1, 1, …, 1).
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = 1
	}
	b := make([]float64, plan.N())
	if err := plan.ApplySymmetric(b, xTrue); err != nil {
		log.Fatal(err)
	}

	// One parked worker pool serves every preconditioner application.
	solver := plan.NewSolver()
	defer solver.Close()

	x, stats, err := krylov.CG(context.Background(), plan, b,
		krylov.WithPreconditioner(stsk.NewSGS(solver)),
		krylov.WithTolerance(1e-8))
	if err != nil {
		log.Fatal(err)
	}
	maxErr := 0.0
	for i := range x {
		if e := x[i] - xTrue[i]; e > maxErr {
			maxErr = e
		} else if -e > maxErr {
			maxErr = -e
		}
	}
	fmt.Println("converged:", stats.Residual <= 1e-8)
	fmt.Println("solution recovered:", maxErr < 1e-6)
	// Output:
	// converged: true
	// solution recovered: true
}
