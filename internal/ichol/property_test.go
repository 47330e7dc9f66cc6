package ichol

import (
	"math/rand"
	"testing"
	"testing/quick"

	"stsk/internal/sparse"
)

// TestFactorPatternResidualProperty: for random SPD-by-dominance systems,
// IC(0) succeeds without shifting and reproduces A exactly on the stored
// lower-triangle positions.
func TestFactorPatternResidualProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(71))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		coo := sparse.NewCOO(n, 6*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for v := 1; v < n; v++ {
			coo.AddSym(v, rng.Intn(v), 1)
		}
		for e := 0; e < rng.Intn(3*n); e++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				coo.AddSym(i, j, 1)
			}
		}
		a := coo.ToCSR()
		if err := sparse.AssignSPDValues(a); err != nil {
			return false
		}
		l, err := factorCSR(a, Options{})
		if err != nil {
			return false
		}
		if l.NNZ() != a.Lower().NNZ() {
			return false // pattern must be preserved exactly
		}
		return VerifyOnPattern(a, l) < 1e-9
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestFactorExactOnChainsProperty: a tridiagonal (chain) matrix in natural
// order has a perfect elimination ordering with zero fill-in, so IC(0) is
// the exact Cholesky factorisation and the two-sweep solve inverts A
// exactly. (Random trees do NOT qualify: a vertex with two later children
// creates fill.)
func TestFactorExactOnChainsProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(73))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		coo := sparse.NewCOO(n, 3*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 1)
		}
		for v := 1; v < n; v++ {
			coo.AddSym(v, v-1, 1) // chain: zero fill-in in natural order
		}
		a := coo.ToCSR()
		if err := sparse.AssignSPDValues(a); err != nil {
			return false
		}
		l, err := factorCSR(a, Options{})
		if err != nil {
			return false
		}
		// Zero fill-in means IC(0) IS Cholesky: solving L y = A x, then
		// Lᵀ z = y must return z = x exactly.
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ax := make([]float64, n)
		a.MatVec(ax, x)
		y, err := sparse.ForwardSubstitution(l, ax)
		if err != nil {
			return false
		}
		z, err := sparse.BackwardSubstitution(l.Transpose(), y)
		if err != nil {
			return false
		}
		return sparse.MaxAbsDiff(z, x) < 1e-8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
