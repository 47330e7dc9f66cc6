package ichol

import (
	"math"
	"math/rand"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/sparse"
)

func TestFactorDenseEqualsCholesky(t *testing.T) {
	// On a dense SPD matrix IC(0) is the exact Cholesky factorisation.
	n := 6
	coo := sparse.NewCOO(n, n*n)
	rng := rand.New(rand.NewSource(2))
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = rng.Float64()
		}
	}
	// A = B·Bᵀ + n·I is SPD and dense.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.0
			for k := 0; k < n; k++ {
				v += b[i][k] * b[j][k]
			}
			if i == j {
				v += float64(n)
			}
			coo.Add(i, j, v)
		}
	}
	a := coo.ToCSR()
	l, err := factorCSR(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := VerifyOnPattern(a, l); res > 1e-9 {
		t.Fatalf("dense factor residual %g", res)
	}
	// Dense pattern: L·Lᵀ must equal A everywhere, i.e. it IS Cholesky.
	lt := l.Transpose()
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			got := 0.0
			for k := 0; k <= j; k++ {
				got += l.At(i, k) * lt.At(k, j)
			}
			if math.Abs(got-a.At(i, j)) > 1e-9 {
				t.Fatalf("L·Lᵀ[%d,%d] = %g, want %g", i, j, got, a.At(i, j))
			}
		}
	}
}

func TestFactorOnMeshClasses(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"grid2d":  gen.Grid2D(15, 15),
		"trimesh": gen.TriMesh(12, 12, 3),
		"grid3d":  gen.Grid3D(6, 6, 6),
		"kkt3d":   gen.KKT3D(5, 5, 5),
	}
	for name, a := range mats {
		l, err := factorCSR(a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !l.IsLowerTriangular() || !l.HasFullNonzeroDiagonal() {
			t.Fatalf("%s: factor not a valid lower triangle", name)
		}
		if l.NNZ() != a.Lower().NNZ() {
			t.Fatalf("%s: IC(0) changed the pattern", name)
		}
		if res := VerifyOnPattern(a, l); res > 1e-9 {
			t.Fatalf("%s: pattern residual %g", name, res)
		}
	}
}

func TestFactorPreconditionerQuality(t *testing.T) {
	// M = L·Lᵀ must approximate A well: κ(M⁻¹A) ≪ κ(A). Cheap proxy:
	// applying M⁻¹A to random vectors stays close to identity compared to
	// D⁻¹A (Jacobi).
	a := gen.Grid2D(20, 20)
	l, err := factorCSR(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u := l.Transpose()
	rng := rand.New(rand.NewSource(7))
	v := make([]float64, a.N)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	av := make([]float64, a.N)
	a.MatVec(av, v)
	y, err := sparse.ForwardSubstitution(l, av)
	if err != nil {
		t.Fatal(err)
	}
	z, err := sparse.BackwardSubstitution(u, y)
	if err != nil {
		t.Fatal(err)
	}
	// ‖M⁻¹A v − v‖ / ‖v‖ should be well under 1 for IC(0) on a Laplacian.
	num, den := 0.0, 0.0
	for i := range v {
		d := z[i] - v[i]
		num += d * d
		den += v[i] * v[i]
	}
	if rel := math.Sqrt(num / den); rel > 0.75 {
		t.Fatalf("IC(0) preconditioner too weak: relative deviation %.3f", rel)
	}
}

func TestFactorBreakdownAndBoost(t *testing.T) {
	// An indefinite matrix breaks IC(0); AutoBoost must rescue it.
	coo := sparse.NewCOO(2, 4)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	coo.AddSym(0, 1, 5) // 2x2 with off-diagonal 5: indefinite
	a := coo.ToCSR()
	if _, err := factorCSR(a, Options{}); err == nil {
		t.Fatal("indefinite matrix factored without error")
	}
	l, err := factorCSR(a, Options{AutoBoost: true})
	if err != nil {
		t.Fatalf("AutoBoost failed: %v", err)
	}
	if !l.HasFullNonzeroDiagonal() {
		t.Fatal("boosted factor has zero diagonal")
	}
}

func TestFactorRejectsBadInput(t *testing.T) {
	// Missing diagonal.
	coo := sparse.NewCOO(2, 2)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	if _, err := factorCSR(coo.ToCSR(), Options{}); err == nil {
		t.Fatal("hollow matrix accepted")
	}
	// A full matrix is not a lower triangle: row 0 ends above the diagonal.
	full := sparse.NewCOO(2, 4)
	full.Add(0, 0, 2)
	full.Add(1, 1, 2)
	full.AddSym(0, 1, 1)
	if _, err := Factor(full.ToCSR(), Options{AutoBoost: true}); err == nil {
		t.Fatal("full matrix accepted as a lower triangle")
	}
}

// TestFactorNaNPivotIsBreakdown: finite input whose elimination overflows
// — L[3,1] = (1 − 1e200·1e110)/L[1,1] is −Inf, and then L[3,2] takes
// −Inf·L[2,1] = −Inf·0 = NaN — must break down at row 3 instead of
// returning a factor carrying NaN, and AutoBoost must either rescue it
// with finite values or fail.
func TestFactorNaNPivotIsBreakdown(t *testing.T) {
	coo := sparse.NewCOO(4, 12)
	for i, d := range []float64{1, 1e221, 1, 1} {
		coo.Add(i, i, d)
	}
	coo.AddSym(3, 0, 1e200)
	coo.AddSym(1, 0, 1e110)
	coo.AddSym(3, 1, 1)
	coo.AddSym(3, 2, 1)
	coo.AddSym(2, 1, 0)
	a := coo.ToCSR()
	if _, err := factorCSR(a, Options{}); err == nil {
		t.Fatal("overflowing elimination factored without error")
	}
	l, err := factorCSR(a, Options{AutoBoost: true})
	if err != nil {
		return
	}
	for k, v := range l.Val {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("boosted factor value %d is %v", k, v)
		}
	}
}

func TestManualShift(t *testing.T) {
	a := gen.Grid2D(8, 8)
	l0, err := factorCSR(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l1, err := factorCSR(a, Options{Shift: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Shift must change the factor (larger diagonal).
	d0 := l0.Val[l0.RowPtr[1]-1]
	d1 := l1.Val[l1.RowPtr[1]-1]
	if d1 <= d0 {
		t.Fatalf("shifted diagonal %g not larger than unshifted %g", d1, d0)
	}
}

// factorCSR factors the lower triangle of a full symmetric matrix and
// returns the factor as a CSR on that triangle's pattern.
func factorCSR(a *sparse.CSR, opts Options) (*sparse.CSR, error) {
	tril := a.Lower()
	val, err := Factor(tril, opts)
	if err != nil {
		return nil, err
	}
	return &sparse.CSR{N: tril.N, RowPtr: tril.RowPtr, Col: tril.Col, Val: val}, nil
}

// TestRowMatchesSparseDotReference: Row's merged dot products are
// sparseDot's, term for term: the factor equals, bit for bit, a plain
// up-looking loop that sums every L[i,j]·L[k,j] with sparseDot's cutoff
// merge — on mesh classes and on random patterns whose rows share few
// columns, boosted and not.
func TestRowMatchesSparseDotReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mats := []*sparse.CSR{gen.Grid2D(9, 7), gen.Grid3D(5, 4, 3), gen.TriMesh(9, 9, 3)}
	for range 20 {
		n := 2 + rng.Intn(60)
		coo := sparse.NewCOO(n, 8*n)
		for i := 0; i < n; i++ {
			coo.Add(i, i, 4+rng.Float64())
		}
		for e := 0; e < 3*n; e++ {
			if i, j := rng.Intn(n), rng.Intn(n); i != j {
				coo.AddSym(i, j, rng.Float64()-0.5)
			}
		}
		mats = append(mats, coo.ToCSR())
	}
	for m, a := range mats {
		l := a.Lower()
		for _, shift := range []float64{0, 0.25} {
			got, err := Factor(l, Options{Shift: shift})
			want := append([]float64(nil), l.Val...)
			f := &sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: want}
			var wantErr error
			for i := 0; i < l.N && wantErr == nil; i++ {
				lo, diag := l.RowPtr[i], l.RowPtr[i+1]-1
				for kk := lo; kk < diag; kk++ {
					k := l.Col[kk]
					want[kk] = (want[kk] - sparseDot(f, i, k, k)) / want[l.RowPtr[k+1]-1]
				}
				sq := 0.0
				for kk := lo; kk < diag; kk++ {
					sq += want[kk] * want[kk]
				}
				if pivot := want[diag] + shift - sq; pivot > 0 {
					want[diag] = math.Sqrt(pivot)
				} else {
					wantErr = &Breakdown{Pivot: pivot, Row: i}
				}
			}
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("matrix %d shift %g: error %v, reference %v", m, shift, err, wantErr)
			}
			if err != nil {
				continue
			}
			for k := range got {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("matrix %d shift %g: value %d is %v, reference %v", m, shift, k, got[k], want[k])
				}
			}
		}
	}
}
