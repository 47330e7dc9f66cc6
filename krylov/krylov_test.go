package krylov

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"stsk"
)

// problem builds a plan and a manufactured SPD system A′ xTrue = b.
func problem(t *testing.T, class string, n int) (*stsk.Plan, []float64, []float64) {
	t.Helper()
	mat, err := stsk.Generate(class, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, plan.N())
	plan.ApplySymmetric(b, xTrue)
	return plan, xTrue, b
}

// TestCGPreconditionersBeatPlainCG is the acceptance test: on grid3d and
// trimesh suite matrices, CG with the SGS and IC(0) preconditioners must
// reach a 1e-8 relative residual in strictly fewer iterations than
// unpreconditioned CG, and all three must actually solve the system.
func TestCGPreconditionersBeatPlainCG(t *testing.T) {
	const tol = 1e-8
	for _, class := range []string{"grid3d", "trimesh"} {
		plan, xTrue, b := problem(t, class, 4000)
		solver := plan.NewSolver()
		defer solver.Close()
		ic0, err := stsk.NewIC0(plan)
		if err != nil {
			t.Fatalf("%s: IC0: %v", class, err)
		}
		defer ic0.Close()

		run := func(name string, opts ...Option) Stats {
			t.Helper()
			x, st, err := CG(context.Background(), plan, b,
				append(opts, WithTolerance(tol), WithMaxIterations(5000))...)
			if err != nil {
				t.Fatalf("%s/%s: %v", class, name, err)
			}
			maxErr := 0.0
			for i := range x {
				if e := math.Abs(x[i] - xTrue[i]); e > maxErr {
					maxErr = e
				}
			}
			if maxErr > 1e-5 {
				t.Fatalf("%s/%s: solution error %g after %d iterations", class, name, maxErr, st.Iterations)
			}
			if st.Residual > tol {
				t.Fatalf("%s/%s: final residual %g above tol", class, name, st.Residual)
			}
			return st
		}

		plain := run("plain")
		sgsSt := run("sgs", WithPreconditioner(stsk.NewSGS(solver)))
		icSt := run("ic0", WithPreconditioner(ic0))
		if sgsSt.Iterations >= plain.Iterations {
			t.Fatalf("%s: SGS took %d iterations, plain CG %d", class, sgsSt.Iterations, plain.Iterations)
		}
		if icSt.Iterations >= plain.Iterations {
			t.Fatalf("%s: IC(0) took %d iterations, plain CG %d", class, icSt.Iterations, plain.Iterations)
		}
		t.Logf("%s: plain=%d sgs=%d ic0=%d iterations", class, plain.Iterations, sgsSt.Iterations, icSt.Iterations)
	}
}

func TestCGJacobiConverges(t *testing.T) {
	plan, xTrue, b := problem(t, "grid2d", 1500)
	x, st, err := CG(context.Background(), plan, b,
		WithPreconditioner(stsk.NewJacobi(plan)), WithMaxIterations(5000))
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-xTrue[i]) > 1e-5 {
			t.Fatalf("solution error at %d after %d iterations", i, st.Iterations)
		}
	}
}

func TestCGCallbackAndStats(t *testing.T) {
	plan, _, b := problem(t, "grid2d", 900)
	var seen []Iteration
	_, st, err := CG(context.Background(), plan, b, WithCallback(func(it Iteration) {
		seen = append(seen, it)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != st.Iterations {
		t.Fatalf("callback fired %d times for %d iterations", len(seen), st.Iterations)
	}
	for i, it := range seen {
		if it.K != i+1 {
			t.Fatalf("callback %d reported K=%d", i, it.K)
		}
	}
	if last := seen[len(seen)-1].Residual; last != st.Residual {
		t.Fatalf("last callback residual %g != stats residual %g", last, st.Residual)
	}
}

func TestCGNotConverged(t *testing.T) {
	plan, _, b := problem(t, "grid3d", 2000)
	x, st, err := CG(context.Background(), plan, b, WithMaxIterations(3))
	if !errors.Is(err, stsk.ErrNotConverged) {
		t.Fatalf("err = %v, want ErrNotConverged", err)
	}
	if st.Iterations != 3 || x == nil {
		t.Fatalf("stats %+v after budget exhaustion", st)
	}
}

func TestCGContextCancelled(t *testing.T) {
	plan, _, b := problem(t, "grid3d", 2000)
	// Cancel from the first iteration's callback: the next iteration's
	// check must abandon the solve with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	x, st, err := CG(ctx, plan, b, WithCallback(func(Iteration) { cancel() }))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Iterations != 1 || x == nil {
		t.Fatalf("expected exactly one iteration before cancellation, got %+v", st)
	}
}

func TestCGDimensionAndZeroRHS(t *testing.T) {
	plan, _, _ := problem(t, "grid2d", 400)
	if _, _, err := CG(context.Background(), plan, make([]float64, 3)); !errors.Is(err, stsk.ErrDimension) {
		t.Fatalf("short rhs: err = %v, want ErrDimension", err)
	}
	x, st, err := CG(context.Background(), plan, make([]float64, plan.N()))
	if err != nil || st.Iterations != 0 {
		t.Fatalf("zero rhs: err=%v stats=%+v", err, st)
	}
	for i := range x {
		if x[i] != 0 {
			t.Fatal("zero rhs must give the zero solution")
		}
	}
}

// scaleM is the preconditioner z = s·r: a huge or tiny s drives CG's
// scalars out of float64 range from finite data.
type scaleM float64

func (s scaleM) Apply(z, r []float64) error {
	for i := range z {
		z[i] = float64(s) * r[i]
	}
	return nil
}

// nanAfterM is the identity preconditioner until its first n calls are
// spent, and then writes a NaN into z.
type nanAfterM struct{ n int }

func (m *nanAfterM) Apply(z, r []float64) error {
	copy(z, r)
	if m.n--; m.n < 0 {
		z[0] = math.NaN()
	}
	return nil
}

// TestCGRefusesNonFinite: CG stops with ErrNonFinite as soon as ‖b‖,
// pᵀA′p, ‖r‖² or rᵀz comes out NaN or infinite, instead of running its
// whole budget on NaN vectors (1,000 iterations, every entry of x NaN).
func TestCGRefusesNonFinite(t *testing.T) {
	plan, _, b := problem(t, "grid3d", 8000)
	ic0, err := stsk.NewIC0(plan)
	if err != nil {
		t.Fatal(err)
	}
	defer ic0.Close()
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e300} {
		bad := append([]float64(nil), b...)
		bad[7] = v
		_, st, err := CG(context.Background(), plan, bad, WithPreconditioner(ic0), WithTolerance(1e-10))
		if !errors.Is(err, stsk.ErrNonFinite) || !strings.Contains(err.Error(), "‖b‖") || st.Iterations != 0 {
			t.Errorf("b[7] = %v: err = %v after %d iterations, want ErrNonFinite on ‖b‖ before the first", v, err, st.Iterations)
		}
	}
	for _, tc := range []struct {
		name   string
		pc     stsk.Preconditioner
		scalar string
		iters  int
	}{
		{"NaN in z at the start", &nanAfterM{n: 0}, "rᵀz", 0},
		{"NaN in z at iteration 1", &nanAfterM{n: 1}, "rᵀz", 1},
		{"z = 1e200·r", scaleM(1e200), "pᵀA′p", 0},
		{"z = 1e-200·r", scaleM(1e-200), "‖r‖²", 1},
	} {
		_, st, err := CG(context.Background(), plan, b, WithPreconditioner(tc.pc), WithTolerance(1e-10))
		if !errors.Is(err, stsk.ErrNonFinite) || !strings.Contains(err.Error(), tc.scalar) || st.Iterations != tc.iters {
			t.Errorf("%s: err = %v after %d iterations, want ErrNonFinite on %s after %d", tc.name, err, st.Iterations, tc.scalar, tc.iters)
		}
	}
}
