package stsk

import (
	"errors"
	"math"
	"testing"

	"stsk/internal/testmat"
)

// perturbValues derives a new deterministic value array from vals: every
// entry is rescaled by a step-dependent factor and a sprinkling of
// off-pattern sign flips, keeping the diagonal safely nonzero. Each step
// yields a different array, so refactor chains visit genuinely distinct
// numeric systems.
func perturbValues(vals []float64, step int) []float64 {
	out := make([]float64, len(vals))
	for k, v := range vals {
		f := 1 + float64((k*31+step*17)%23)/16
		if (k+step)%5 == 0 {
			f = -f
		}
		out[k] = v * f
	}
	return out
}

// assertVecBitwise fails unless got equals want entry for entry.
func assertVecBitwise(t *testing.T, label string, got, want []float64) {
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

// TestRefactorMatchesRebuildBitwise is the tentpole property: for every
// corpus matrix, method, worker count, and panel width (a batch of 1, 4
// or 8 right-hand sides is one panel of that width), a chain of three
// Refactor steps must leave the plan bitwise interchangeable with a plan
// freshly built on the same values — across cooperative solves, blocked
// panel solves, and the backward sweep.
func TestRefactorMatchesRebuildBitwise(t *testing.T) {
	workerCounts := []int{1, 3}
	widths := []int{1, 4, 8}
	for _, ent := range testmat.Corpus() {
		m := &Matrix{a: ent.A}
		for _, method := range Methods() {
			p, err := Build(m, method)
			if err != nil {
				t.Fatalf("%s/%v: %v", ent.Name, method, err)
			}
			vals := m.Values()
			for step := 1; step <= 3; step++ {
				vals = perturbValues(vals, step)
				if err := p.Refactor(vals); err != nil {
					t.Fatalf("%s/%v/step%d: refactor: %v", ent.Name, method, step, err)
				}
				if got := p.ValuesVersion(); got != uint64(step) {
					t.Fatalf("%s/%v: version %d after %d refactors", ent.Name, method, got, step)
				}
				if err := m.SetValues(vals); err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(m, method)
				if err != nil {
					t.Fatalf("%s/%v/step%d: rebuild: %v", ent.Name, method, step, err)
				}
				xTrue := make([]float64, p.N())
				for i := range xTrue {
					xTrue[i] = 1 + float64((i*7+step)%13)/8
				}
				b := fresh.RHSFor(xTrue)
				assertVecBitwise(t, ent.Name+"/rhs", p.RHSFor(xTrue), b)

				wantSeq, err := fresh.SolveSequential(b)
				if err != nil {
					t.Fatal(err)
				}
				gotSeq, err := p.SolveSequential(b)
				if err != nil {
					t.Fatal(err)
				}
				assertVecBitwise(t, ent.Name+"/seq", gotSeq, wantSeq)

				for _, workers := range workerCounts {
					for _, kw := range widths {
						label := ent.Name + "/" + method.String()
						sr := p.NewSolver(WithWorkers(workers))
						sf := fresh.NewSolver(WithWorkers(workers))
						B := make([][]float64, kw)
						want := make([][]float64, kw)
						got := make([][]float64, kw)
						for r := range B {
							xr := make([]float64, p.N())
							for i := range xr {
								xr[i] = float64((i+r*3+step)%9) - 4
							}
							B[r] = fresh.RHSFor(xr)
							want[r] = make([]float64, p.N())
							got[r] = make([]float64, p.N())
						}
						if err := sf.SolveBlockInto(t.Context(), want, B); err != nil {
							t.Fatal(err)
						}
						if err := sr.SolveBlockInto(t.Context(), got, B); err != nil {
							t.Fatal(err)
						}
						for r := range got {
							assertVecBitwise(t, label+"/block", got[r], want[r])
						}
						x1, err := sr.Solve(B[0])
						if err != nil {
							t.Fatal(err)
						}
						x2, err := sf.Solve(B[0])
						if err != nil {
							t.Fatal(err)
						}
						assertVecBitwise(t, label+"/coop", x1, x2)
						u1, err := sr.SolveUpper(B[0])
						if err != nil {
							t.Fatal(err)
						}
						u2, err := sf.SolveUpper(B[0])
						if err != nil {
							t.Fatal(err)
						}
						assertVecBitwise(t, label+"/upper", u1, u2)
						sr.Close()
						sf.Close()
					}
				}
			}
		}
	}
}

// TestRefactorDerivedState: everything the plan derives from its values —
// diagonal, symmetric operator, residuals, the IC0 factor, the SGS
// preconditioner — must reflect the new epoch on next use.
func TestRefactorDerivedState(t *testing.T) {
	m := &Matrix{a: testmat.Grid3D(6)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	vals := perturbValues(m.Values(), 1)
	if err := p.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	if err := m.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	fresh, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "diag", p.Diagonal(), fresh.Diagonal())

	x := make([]float64, p.N())
	for i := range x {
		x[i] = float64(i%5) - 2
	}
	yp := make([]float64, p.N())
	yf := make([]float64, p.N())
	p.ApplySymmetric(yp, x)
	fresh.ApplySymmetric(yf, x)
	assertVecBitwise(t, "symmetric", yp, yf)

	b := fresh.RHSFor(x)
	if r := p.Residual(x, b); r != 0 {
		t.Fatalf("residual of exact solution %g, want 0", r)
	}

	icp, err := p.IC0()
	if err != nil {
		t.Fatal(err)
	}
	icf, err := fresh.IC0()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := icp.SolveSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := icf.SolveSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "ic0", gp, gf)

	sp := p.NewSolver(WithWorkers(2))
	defer sp.Close()
	sf := fresh.NewSolver(WithWorkers(2))
	defer sf.Close()
	zp, zf := make([]float64, p.N()), make([]float64, p.N())
	if err := sp.ApplySGSInto(zp, b); err != nil {
		t.Fatal(err)
	}
	if err := sf.ApplySGSInto(zf, b); err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "sgs", zp, zf)
}

// TestRefactorSharedSolverSeesNewValues: the plan's own shared solver —
// created before the refactor and never rebuilt — must pick up the new
// epoch on its next dispatch.
func TestRefactorSharedSolverSeesNewValues(t *testing.T) {
	m := &Matrix{a: testmat.TriMesh(10)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	b := manufacturedB(p, 3)
	if _, err := p.Solve(b); err != nil { // instantiate the shared pool
		t.Fatal(err)
	}
	vals := perturbValues(m.Values(), 2)
	if err := p.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	want, err := p.SolveSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "shared", got, want)
	gotU, err := p.SolveUpper(b)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := solveUpperWith(p, b, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "shared-upper", gotU, wantU)
}

func manufacturedB(p *Plan, seed int) []float64 {
	xTrue := make([]float64, p.N())
	for i := range xTrue {
		xTrue[i] = float64((i*5+seed)%11) - 5
	}
	return p.RHSFor(xTrue)
}

// TestRefactorContract pins the error contract at the facade: every
// rejection matches its sentinel (or reports the zero diagonal),
// publishes nothing, and leaves the old values fully solvable.
func TestRefactorContract(t *testing.T) {
	m := &Matrix{a: testmat.Grid3D(4)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	derived, err := p.IC0()
	if err != nil {
		t.Fatal(err)
	}
	other := &Matrix{a: testmat.TriMesh(8)}
	// withDiag2 returns the matrix's values with row 2's diagonal entry,
	// which every factor keeps, set to v.
	withDiag2 := func(v float64) []float64 {
		vals := m.Values()
		for k := m.a.RowPtr[2]; k < m.a.RowPtr[3]; k++ {
			if m.a.Col[k] == 2 {
				vals[k] = v
			}
		}
		return vals
	}

	cases := []struct {
		name string
		do   func() error
		want error // the sentinel the rejection wraps; nil for the zero diagonal
	}{
		{"short values", func() error { return p.Refactor(make([]float64, 3)) }, ErrSparsityMismatch},
		{"long values", func() error { return p.Refactor(make([]float64, m.NNZ()+1)) }, ErrSparsityMismatch},
		{"nil matrix", func() error { return p.RefactorMatrix(nil) }, ErrSparsityMismatch},
		{"foreign pattern", func() error { return p.RefactorMatrix(other) }, ErrSparsityMismatch},
		{"derived plan", func() error { return derived.Refactor(make([]float64, m.NNZ())) }, ErrSparsityMismatch},
		{"zero diagonal", func() error { return p.Refactor(withDiag2(0)) }, nil},
		{"NaN value", func() error { return p.Refactor(withDiag2(math.NaN())) }, ErrNonFinite},
		{"+Inf value", func() error { return p.Refactor(withDiag2(math.Inf(1))) }, ErrNonFinite},
		{"-Inf value", func() error { return p.Refactor(withDiag2(math.Inf(-1))) }, ErrNonFinite},
	}
	b := manufacturedB(p, 9)
	before, err := p.SolveSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: err %v does not wrap %v", tc.name, err, tc.want)
		}
		if tc.want == nil && (errors.Is(err, ErrSparsityMismatch) || errors.Is(err, ErrNonFinite)) {
			t.Fatalf("%s: err %v wraps a sentinel it should not", tc.name, err)
		}
		if v := p.ValuesVersion(); v != 0 {
			t.Fatalf("%s: version %d after failed refactor, want 0", tc.name, v)
		}
		after, err := p.SolveSequential(b)
		if err != nil {
			t.Fatalf("%s: solve after failed refactor: %v", tc.name, err)
		}
		assertVecBitwise(t, tc.name+"/unchanged", after, before)
	}

	// RefactorMatrix with the identical pattern succeeds and matches
	// Refactor on the same values.
	vals := perturbValues(m.Values(), 4)
	if err := m.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	if err := p.RefactorMatrix(m); err != nil {
		t.Fatalf("RefactorMatrix on identical pattern: %v", err)
	}
	if v := p.ValuesVersion(); v != 1 {
		t.Fatalf("version %d after RefactorMatrix, want 1", v)
	}
}

// TestMatrixValuesRoundTrip pins the Matrix value accessors: Values copies
// out, SetValues validates length and copies in.
func TestMatrixValuesRoundTrip(t *testing.T) {
	m := &Matrix{a: testmat.Chain(12)}
	v := m.Values()
	v[0] = 12345
	if m.Values()[0] == 12345 {
		t.Fatal("Values exposed internal storage")
	}
	if err := m.SetValues(v[:3]); !errors.Is(err, ErrDimension) {
		t.Fatalf("short SetValues: %v, want ErrDimension", err)
	}
	if err := m.SetValues(v); err != nil {
		t.Fatal(err)
	}
	if m.Values()[0] != 12345 {
		t.Fatal("SetValues did not apply")
	}
	v[1] = -777
	if m.Values()[1] == -777 {
		t.Fatal("SetValues retained the caller's slice")
	}
}
