// Package krylov provides preconditioned Krylov-subspace solvers over
// stsk plans — the application that motivates fast sparse triangular
// solution (paper §1). Every iteration of a preconditioned conjugate
// gradient applies one forward and one backward triangular sweep; with an
// stsk.Preconditioner riding a persistent stsk.Solver, those sweeps run
// pack-parallel on the caller's goroutine and the idle ones of the
// process-wide solve helpers, and so does the product with A′
// (stsk.Plan.ApplySymmetric). On stskbench's pcg-ic0 workload (IC(0) on
// a 97k-row grid3d STS-3 plan, 2 vCPUs) the two sweeps are 46% of the
// solve, and CG's own work — the product and four sequential vector
// passes an iteration — is 54%.
//
// The package follows the facade's v2 conventions: functional options,
// context cancellation checked every iteration, and sentinel errors —
// a solve that exhausts its iteration budget reports
// stsk.ErrNotConverged via errors.Is.
//
//	solver := plan.NewSolver()
//	defer solver.Close()
//	x, stats, err := krylov.CG(ctx, plan, b,
//	    krylov.WithPreconditioner(stsk.NewSGS(solver)),
//	    krylov.WithTolerance(1e-8))
package krylov

import (
	"context"
	"fmt"
	"math"

	"stsk"
)

// Iteration is a per-iteration progress report delivered to the
// WithCallback observer.
type Iteration struct {
	K        int     // iteration number, starting at 1
	Residual float64 // relative residual ‖rₖ‖₂ / ‖b‖₂
}

// Stats summarises a finished (or abandoned) Krylov solve.
type Stats struct {
	Iterations int     // iterations performed
	Residual   float64 // final relative residual ‖r‖₂ / ‖b‖₂
}

// Option configures a Krylov solve.
type Option func(*config)

type config struct {
	tol      float64
	maxIter  int
	precond  stsk.Preconditioner
	callback func(Iteration)
}

// WithPreconditioner sets the preconditioner M applied as z = M⁻¹r each
// iteration; nil (the default) runs the unpreconditioned method.
func WithPreconditioner(m stsk.Preconditioner) Option {
	return func(c *config) { c.precond = m }
}

// WithTolerance sets the convergence tolerance on the relative residual
// ‖r‖₂/‖b‖₂; the default is 1e-8.
func WithTolerance(rtol float64) Option {
	return func(c *config) { c.tol = rtol }
}

// WithMaxIterations bounds the iteration count; the default is 1000.
// Exceeding it returns an error matching stsk.ErrNotConverged.
func WithMaxIterations(n int) Option {
	return func(c *config) { c.maxIter = n }
}

// WithCallback installs a per-iteration observer, called synchronously
// after each iteration's residual update — progress bars, convergence
// traces, adaptive monitoring.
func WithCallback(fn func(Iteration)) Option {
	return func(c *config) { c.callback = fn }
}

func applyOptions(opts []Option) config {
	c := config{tol: 1e-8, maxIter: 1000}
	for _, o := range opts {
		if o != nil {
			o(&c)
		}
	}
	return c
}

// CG solves A′x = b by the (optionally preconditioned) conjugate gradient
// method, where A′ is the plan's symmetric matrix and both vectors are in
// plan order. The context is checked every iteration: a cancelled or
// expired ctx abandons the solve and returns the iterate so far together
// with ctx.Err(). A right-hand side of the wrong length returns
// stsk.ErrDimension; exhausting the iteration budget returns the iterate
// with an error matching stsk.ErrNotConverged.
//
// A right-hand side whose norm, or whose first rᵀz, is NaN or infinite
// is refused with an error matching stsk.ErrNonFinite. So is an
// iteration whose pᵀA′p, ‖r‖² or rᵀz comes out NaN or infinite: the
// solve stops there and returns the iterate so far, where it would
// otherwise run its whole budget on non-finite vectors.
//
// A zero right-hand side returns the exact solution x = 0 immediately.
func CG(ctx context.Context, plan *stsk.Plan, b []float64, opts ...Option) ([]float64, Stats, error) {
	c := applyOptions(opts)
	n := plan.N()
	if len(b) != n {
		return nil, Stats{}, fmt.Errorf("%w: rhs length %d, want %d", stsk.ErrDimension, len(b), n)
	}
	bnorm := math.Sqrt(dot(b, b))
	if err := checkFinite("‖b‖", bnorm, 0); err != nil {
		return nil, Stats{}, err
	}
	x := make([]float64, n)
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
	if err := checkFinite("rᵀz", rz, 0); err != nil {
		return nil, Stats{}, err
	}
	st := Stats{Residual: 1}
	for k := 1; k <= c.maxIter; k++ {
		if err := ctx.Err(); err != nil {
			return x, st, err
		}
		if err := plan.ApplySymmetric(ap, p); err != nil {
			return x, st, err
		}
		pap := dot(p, ap)
		if err := checkFinite("pᵀA′p", pap, k); err != nil {
			return x, st, err
		}
		alpha := rz / pap
		rr := update(x, r, p, ap, alpha)
		st.Iterations = k
		st.Residual = math.Sqrt(rr) / bnorm
		if err := checkFinite("‖r‖²", rr, k); err != nil {
			return x, st, err
		}
		if c.callback != nil {
			c.callback(Iteration{K: k, Residual: st.Residual})
		}
		if st.Residual <= c.tol {
			return x, st, nil
		}
		if err := applyM(); err != nil {
			return x, st, err
		}
		rzNew := dot(r, z)
		if err := checkFinite("rᵀz", rzNew, k); err != nil {
			return x, st, err
		}
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, st, fmt.Errorf("%w: CG at relative residual %.3g after %d iterations (tol %.3g)",
		stsk.ErrNotConverged, st.Residual, st.Iterations, c.tol)
}

// checkFinite refuses a CG scalar that came out NaN or infinite at
// iteration k (0 before the first), wrapping stsk.ErrNonFinite.
func checkFinite(name string, v float64, k int) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: CG %s is %v at iteration %d", stsk.ErrNonFinite, name, v, k)
	}
	return nil
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// update is x += αp, r −= α·A′p and ‖r‖² in one pass over the vectors.
// Each element operation, and the order of the sum, is that of two axpys
// and a dot product run one after another, so the iterates are theirs
// bit for bit.
func update(x, r, p, ap []float64, alpha float64) float64 {
	x, p, ap = x[:len(r)], p[:len(r)], ap[:len(r)]
	na := -alpha
	s := 0.0
	for i := range r {
		x[i] += alpha * p[i]
		r[i] += na * ap[i]
		s += r[i] * r[i]
	}
	return s
}
