package stsk

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// symmetricRef is the reference product for ApplySymmetric: the
// sequential CSR.MatVec over SymmetrizePattern of the plan's current L′.
func symmetricRef(p *Plan, x []float64) []float64 {
	y := make([]float64, p.N())
	sparse.SymmetrizePattern(p.structure().L).MatVec(y, x)
	return y
}

func rampVec(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((5*i)%13-6) / 3
	}
	return x
}

// TestApplySymmetricMatchesMatVec: ApplySymmetric is the sequential
// CSR.MatVec over SymmetrizePattern(L′) bit for bit, for every corpus
// matrix (plus one large enough to be swept in several chunks) and
// method, on a built plan, the same plan refactored, and its IC(0)
// factor plan.
func TestApplySymmetricMatchesMatVec(t *testing.T) {
	for _, ent := range append(testmat.Corpus(), testmat.Entry{Name: "grid3d-20", A: testmat.Grid3D(20)}) {
		m := &Matrix{a: ent.A}
		for _, method := range Methods() {
			label := ent.Name + "/" + method.String()
			p, err := Build(m, method)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			x := rampVec(p.N())
			check := func(kind string, q *Plan) {
				t.Helper()
				y := make([]float64, q.N())
				if err := q.ApplySymmetric(y, x); err != nil {
					t.Fatalf("%s/%s: %v", label, kind, err)
				}
				assertVecBitwise(t, label+"/"+kind, y, symmetricRef(q, x))
			}
			check("built", p)
			ic, err := p.IC0()
			if err != nil {
				t.Fatalf("%s: IC0: %v", label, err)
			}
			check("ic0", ic)
			if err := p.Refactor(perturbValues(m.Values(), 1)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check("refactored", p)
		}
	}
}

// TestApplySymmetricConcurrentRefactor: products from 8 goroutines while
// Refactor flips the plan between two value arrays each equal one
// epoch's reference exactly — a product pins one epoch's A′ and never
// sees a mix.
func TestApplySymmetricConcurrentRefactor(t *testing.T) {
	mat := &Matrix{a: testmat.Grid3D(20)}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	vals := [2][]float64{mat.Values(), perturbValues(mat.Values(), 1)}
	x := rampVec(p.N())
	var refs [2][]float64
	for e := range refs {
		if err := p.Refactor(vals[e]); err != nil {
			t.Fatal(err)
		}
		refs[e] = symmetricRef(p, x)
	}
	var wg sync.WaitGroup
	var running atomic.Int32
	for g := 0; g < 8; g++ {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			y := make([]float64, p.N())
			for rep := 0; rep < 30; rep++ {
				if err := p.ApplySymmetric(y, x); err != nil {
					t.Error(err)
					return
				}
				if !sameBits(y, refs[0]) && !sameBits(y, refs[1]) {
					t.Errorf("product %d matches neither epoch's reference", rep)
					return
				}
			}
		}()
	}
	for flip := 0; running.Load() > 0; flip++ {
		if err := p.Refactor(vals[flip%2]); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// TestApplySymmetricSteadyStateAllocs: once A′ is assembled for the
// epoch, a product allocates nothing.
func TestApplySymmetricSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	p, err := Build(&Matrix{a: testmat.Grid3D(20)}, STS3)
	if err != nil {
		t.Fatal(err)
	}
	x, y := rampVec(p.N()), make([]float64, p.N())
	if err := p.ApplySymmetric(y, x); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := p.ApplySymmetric(y, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ApplySymmetric allocates %.1f/op, want 0", n)
	}
}

// TestApplySymmetricDimension: a vector of the wrong length is refused
// with ErrDimension before any product starts.
func TestApplySymmetricDimension(t *testing.T) {
	p, err := Build(&Matrix{a: testmat.Grid3D(6)}, STS3)
	if err != nil {
		t.Fatal(err)
	}
	n := p.N()
	for _, tc := range []struct {
		name   string
		ny, nx int
	}{
		{"short y", n - 1, n},
		{"short x", n, n - 1},
		{"long y", n + 1, n},
		{"empty", 0, 0},
	} {
		err := p.ApplySymmetric(make([]float64, tc.ny), make([]float64, tc.nx))
		if !errors.Is(err, ErrDimension) {
			t.Errorf("%s: err = %v, want ErrDimension", tc.name, err)
		}
	}
}
