// Package ichol implements zero-fill incomplete Cholesky factorisation,
// IC(0): given the lower triangle of a symmetric positive definite
// matrix A, it computes the values of a lower triangular L on that same
// pattern such that (L·Lᵀ)ᵢⱼ = Aᵢⱼ on every stored position. M = L·Lᵀ is
// the classic preconditioner whose application — one forward and one
// backward sparse triangular solve per iteration — is exactly the kernel
// STS-k accelerates (paper §1: "sparse triangular solutions are required
// ... particularly when sparse linear systems are solved using a method
// such as preconditioned conjugate gradient").
//
// The factorisation is numeric only: it reads the pattern it is given
// and allocates no index array, so a caller that already holds the
// symbolic structure of tril(A) — a plan's permuted factor, its packs
// and task DAG — reuses all of it for L.
package ichol

import (
	"fmt"
	"math"

	"stsk/internal/sparse"
)

// Options tune the factorisation.
type Options struct {
	// Shift is added to every diagonal entry before factoring (a Manteuffel
	// shift); 0 factors A as given.
	Shift float64
	// AutoBoost retries with geometrically growing shifts if a pivot comes
	// out non-positive or not a number, instead of failing.
	AutoBoost bool
}

// Factor computes the IC(0) factor of the symmetric matrix whose lower
// triangle is l: sorted rows, each ending with its diagonal entry (the
// csrk invariant). It returns the factor's values on l's pattern, in
// l.Val order; l itself is not modified. A row that does not end with its
// diagonal is refused, and so is a pivot that comes out non-positive or
// NaN unless AutoBoost rescues it.
func Factor(l *sparse.CSR, opts Options) ([]float64, error) {
	for i := 0; i < l.N; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if lo == hi || l.Col[hi-1] != i {
			return nil, fmt.Errorf("ichol: row %d does not end with its diagonal entry", i)
		}
	}
	f := &sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: make([]float64, len(l.Val))}
	shift := opts.Shift
	for attempt := 0; ; attempt++ {
		err := factorOnce(f, l.Val, shift)
		if err == nil {
			return f.Val, nil
		}
		if !opts.AutoBoost || attempt >= 20 {
			return nil, err
		}
		if shift == 0 {
			shift = 1e-3 * maxDiag(l)
		} else {
			shift *= 4
		}
	}
}

func maxDiag(l *sparse.CSR) float64 {
	d := 1.0
	for i := 0; i < l.N; i++ {
		if v := math.Abs(l.Val[l.RowPtr[i+1]-1]); v > d {
			d = v
		}
	}
	return d
}

// factorOnce factors a (the values of tril(A)) with the diagonal shifted
// by shift into l, which holds the same pattern.
func factorOnce(l *sparse.CSR, a []float64, shift float64) error {
	copy(l.Val, a)
	if shift != 0 {
		for i := 0; i < l.N; i++ {
			l.Val[l.RowPtr[i+1]-1] += shift
		}
	}
	// Up-looking factorisation over the fixed pattern. Row i's strictly
	// lower entries are updated left to right:
	//   L[i,k] = (A[i,k] - Σ_{j<k} L[i,j]·L[k,j]) / L[k,k]
	//   L[i,i] = sqrt(A[i,i] - Σ_{j<i} L[i,j]²)
	for i := 0; i < l.N; i++ {
		rowLo, rowHi := l.RowPtr[i], l.RowPtr[i+1]
		for kk := rowLo; kk < rowHi-1; kk++ {
			k := l.Col[kk]
			dot := sparseDot(l, i, k, k) // Σ_{j<k} L[i,j]·L[k,j]
			dk := l.Val[l.RowPtr[k+1]-1]
			l.Val[kk] = (l.Val[kk] - dot) / dk
		}
		sq := 0.0
		for kk := rowLo; kk < rowHi-1; kk++ {
			sq += l.Val[kk] * l.Val[kk]
		}
		pivot := l.Val[rowHi-1] - sq
		// Negated so a NaN pivot — an overflow upstream turned into
		// −Inf·0 — is a breakdown too, not a factor carrying NaN.
		if !(pivot > 0) {
			return fmt.Errorf("ichol: pivot %g at row %d is not positive (consider AutoBoost)", pivot, i)
		}
		l.Val[rowHi-1] = math.Sqrt(pivot)
	}
	return nil
}

// sparseDot computes Σ L[a,j]·L[b,j] over j < cutoff, merging the two
// sorted rows.
func sparseDot(l *sparse.CSR, a, b, cutoff int) float64 {
	ai, aEnd := l.RowPtr[a], l.RowPtr[a+1]
	bi, bEnd := l.RowPtr[b], l.RowPtr[b+1]
	s := 0.0
	for ai < aEnd && bi < bEnd {
		ca, cb := l.Col[ai], l.Col[bi]
		if ca >= cutoff || cb >= cutoff {
			break
		}
		switch {
		case ca < cb:
			ai++
		case cb < ca:
			bi++
		default:
			s += l.Val[ai] * l.Val[bi]
			ai++
			bi++
		}
	}
	return s
}

// VerifyOnPattern returns max |(L·Lᵀ)ᵢⱼ − Aᵢⱼ| over the stored positions of
// A's lower triangle — the defining residual of IC(0), which is exactly 0
// up to round-off when the factorisation succeeded.
func VerifyOnPattern(a, l *sparse.CSR) float64 {
	worst := 0.0
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i)
		for k, j := range cols {
			if j > i {
				break
			}
			// (L·Lᵀ)[i,j] = Σ_m L[i,m]·L[j,m], m ≤ j.
			got := sparseDot(l, i, j, j+1)
			if d := math.Abs(got - vals[k]); d > worst {
				worst = d
			}
		}
	}
	return worst
}
