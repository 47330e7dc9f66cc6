package stsk

// End-to-end integration tests: the full pipeline from Matrix Market bytes
// through ordering, parallel forward/backward solves, IC(0)
// preconditioning, and the NUMA simulator, exercised together the way a
// downstream PCG user would.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

func TestEndToEndMatrixMarketPipeline(t *testing.T) {
	// Serialise a corpus matrix, reload it through the public API, and run
	// the complete STS-3 flow.
	a := testmat.TriMesh(24)
	var buf bytes.Buffer
	if err := sparse.WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	mat, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mat.N() != a.N {
		t.Fatalf("round trip changed n: %d vs %d", mat.N(), a.N)
	}
	for _, method := range Methods() {
		plan, err := Build(mat, method, WithRowsPerSuper(12))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		xTrue := make([]float64, plan.N())
		for i := range xTrue {
			xTrue[i] = math.Cos(float64(i))
		}
		b := plan.RHSFor(xTrue)
		x, err := solveWith(plan, b, WithWorkers(4))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-9 {
			t.Fatalf("%v: solve error %g", method, d)
		}
		sim, err := plan.Simulate("amd", 12)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if sim.Cycles == 0 {
			t.Fatalf("%v: empty simulation", method)
		}
	}
}

func TestEndToEndPCGWithIC0(t *testing.T) {
	// A miniature of examples/cg as a regression test: PCG with IC(0)
	// through the public API must converge on an SPD system.
	mat, err := Generate("grid2d", 900)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3, WithRowsPerSuper(10))
	if err != nil {
		t.Fatal(err)
	}
	ic, err := plan.IC0()
	if err != nil {
		t.Fatal(err)
	}
	n := plan.N()
	rng := rand.New(rand.NewSource(11))
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	plan.ApplySymmetric(b, xTrue)

	x := make([]float64, n)
	r := append([]float64(nil), b...)
	applyM := func(v []float64) []float64 {
		y, err := ic.Solve(v)
		if err != nil {
			t.Fatal(err)
		}
		z, err := ic.SolveUpper(y)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	z := applyM(r)
	p := append([]float64(nil), z...)
	ap := make([]float64, n)
	rz := dotf(r, z)
	iters := 0
	for it := 1; it <= 200; it++ {
		iters = it
		plan.ApplySymmetric(ap, p)
		alpha := rz / dotf(p, ap)
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		if math.Sqrt(dotf(r, r)) < 1e-10 {
			break
		}
		z = applyM(r)
		rzNew := dotf(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	if iters >= 200 {
		t.Fatalf("PCG did not converge in %d iterations", iters)
	}
	if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-6 {
		t.Fatalf("PCG solution error %g after %d iterations", d, iters)
	}
	// IC(0) must beat the diagonal preconditioner on iteration count for a
	// Laplacian this size (sanity that the factor actually helps).
	if iters > 60 {
		t.Fatalf("IC(0)-PCG took %d iterations on a 900-point Laplacian", iters)
	}
}

func dotf(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func TestBuildOrderingOptionExtensions(t *testing.T) {
	mat, err := Generate("trimesh", 1500)
	if err != nil {
		t.Fatal(err)
	}
	k4, err := Build(mat, STS3, WithRowsPerSuper(8), WithLevels(4))
	if err != nil {
		t.Fatal(err)
	}
	sloan, err := Build(mat, STS3, WithRowsPerSuper(8), WithSloanInPack())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Plan{k4, sloan} {
		xTrue := sparseOnes(p.N())
		b := p.RHSFor(xTrue)
		x, err := p.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := p.Residual(x, b); r > 1e-9 {
			t.Fatalf("residual %g", r)
		}
	}
	if _, err := Build(mat, CSRLS, WithLevels(4)); err == nil {
		t.Fatal("row-level method accepted Levels=4")
	}
}

func sparseOnes(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 1
	}
	return v
}
