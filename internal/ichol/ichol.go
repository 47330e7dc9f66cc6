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
//
// The package exports its pieces so that every factorisation runs one
// arithmetic. Row is the kernel: it factors one row from the finished
// rows that row reads, which are exactly the rows forward substitution's
// row reads, so the task DAG that schedules a plan's sweeps schedules
// the factorisation too (solve.Values.DeriveIC0 runs Row on the plan's
// helpers over that DAG). Boost is the AutoBoost retry policy, which
// retries a *Breakdown and nothing else. Factor runs Row over the rows
// in order under Boost: it is the sequential reference every other
// factorisation must equal bit for bit.
package ichol

import (
	"errors"
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

// Breakdown is the error of a pivot that comes out non-positive or NaN:
// the matrix, as shifted, has no IC(0) factor. It is the one failure
// AutoBoost retries.
type Breakdown struct {
	Pivot float64
	Row   int
}

func (e *Breakdown) Error() string {
	return fmt.Sprintf("ichol: pivot %g at row %d is not positive (consider AutoBoost)", e.Pivot, e.Row)
}

// Factor computes the IC(0) factor of the symmetric matrix whose lower
// triangle is l: sorted rows, each ending with its diagonal entry (the
// csrk invariant). It returns the factor's values on l's pattern, in
// l.Val order; l itself is not modified. A row that does not end with its
// diagonal is refused, and so is a pivot that comes out non-positive or
// NaN (a *Breakdown) unless AutoBoost rescues it.
//
// Factor is the sequential reference: it factors the rows in order, one
// Row call each, and every other factorisation of the repository — the
// task-parallel one of the solve layer — runs the same Row kernel under
// the same Boost policy and must equal it bit for bit.
func Factor(l *sparse.CSR, opts Options) ([]float64, error) {
	for i := 0; i < l.N; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if lo == hi || l.Col[hi-1] != i {
			return nil, fmt.Errorf("ichol: row %d does not end with its diagonal entry", i)
		}
	}
	f := &sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: make([]float64, len(l.Val))}
	err := Boost(l, opts, func(shift float64) error {
		copy(f.Val, l.Val)
		for i := 0; i < l.N; i++ {
			if shift != 0 {
				f.Val[l.RowPtr[i+1]-1] += shift
			}
			if err := Row(f, i); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f.Val, nil
}

// Boost runs one factorisation attempt of the matrix whose lower
// triangle is l at opts.Shift and, when AutoBoost is set and the attempt
// breaks down, again at geometrically growing shifts: first 10⁻³ of the
// largest diagonal magnitude (at least 1), then four times the last, up
// to 20 retries. It returns the last attempt's error; an error that is
// not a *Breakdown is returned at once. l supplies the diagonal the first
// boosted shift is scaled by and is not modified.
func Boost(l *sparse.CSR, opts Options, attempt func(shift float64) error) error {
	shift := opts.Shift
	for retry := 0; ; retry++ {
		err := attempt(shift)
		var bd *Breakdown
		if err == nil || !opts.AutoBoost || retry >= 20 || !errors.As(err, &bd) {
			return err
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

// Row factors row i of l in place: the up-looking step of IC(0) over the
// fixed pattern, one row at a time. On entry row i holds the (shifted)
// values of tril(A), and every row its strictly lower entries name holds
// its finished factor row — exactly the rows forward substitution's row i
// reads, so any schedule that orders those rows before row i, such as a
// plan's task DAG, gives the same bits as the sequential row loop. Row
// i's strictly lower entries are updated left to right:
//
//	L[i,k] = (A[i,k] - Σ_{j<k} L[i,j]·L[k,j]) / L[k,k]
//	L[i,i] = sqrt(A[i,i] - Σ_{j<i} L[i,j]²)
//
// A pivot that comes out non-positive or NaN is a *Breakdown, with row i
// left partly factored.
func Row(l *sparse.CSR, i int) error {
	rp, col, val := l.RowPtr, l.Col, l.Val
	lo, diag := rp[i], rp[i+1]-1
	for kk := lo; kk < diag; kk++ {
		k := col[kk]
		// Σ_{j<k} L[i,j]·L[k,j]: the entries of row i before kk merged
		// with row k's off-diagonals — sparseDot(l, i, k, k), summed in
		// the same column order.
		a, b, bEnd := lo, rp[k], rp[k+1]-1
		dot := 0.0
		for a < kk && b < bEnd {
			switch ca, cb := col[a], col[b]; {
			case ca < cb:
				a++
			case cb < ca:
				b++
			default:
				dot += val[a] * val[b]
				a++
				b++
			}
		}
		val[kk] = (val[kk] - dot) / val[bEnd]
	}
	sq := 0.0
	for _, v := range val[lo:diag] {
		sq += v * v
	}
	pivot := val[diag] - sq
	// Negated so a NaN pivot — an overflow upstream turned into −Inf·0 —
	// is a breakdown too, not a factor carrying NaN.
	if !(pivot > 0) {
		return &Breakdown{Pivot: pivot, Row: i}
	}
	val[diag] = math.Sqrt(pivot)
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
