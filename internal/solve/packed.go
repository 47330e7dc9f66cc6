package solve

import "stsk/internal/sparse"

// Packed kernels: the same forward/backward substitution as
// solveRows/solveUpperRows, but streaming the compact structure-of-arrays
// layout — 32-bit row offsets and column indices over off-diagonal
// entries, diagonal in its own array. Halving the index bytes in the
// innermost loop matters because a cache-resident triangular solve is
// bound by exactly that traffic; hoisting the diagonal removes the
// end-of-row special case. Each row's dot product accumulates in the same
// entry order as the CSR kernels, so results are bitwise identical.

// solvePackedRows performs forward substitution for rows [lo, hi).
//
//stsk:noalloc
func solvePackedRows(p *sparse.Packed, x, b []float64, lo, hi int) {
	rp, col, val, diag := p.RowPtr, p.Col, p.Val, p.Diag
	for i := lo; i < hi; i++ {
		s := 0.0
		for k := rp[i]; k < rp[i+1]; k++ {
			s += val[k] * x[col[k]]
		}
		x[i] = (b[i] - s) / diag[i]
	}
}

// solvePackedUpperRows performs backward substitution for rows [lo, hi),
// highest first.
//
//stsk:noalloc
func solvePackedUpperRows(p *sparse.Packed, x, b []float64, lo, hi int) {
	rp, col, val, diag := p.RowPtr, p.Col, p.Val, p.Diag
	for i := hi - 1; i >= lo; i-- {
		s := 0.0
		for k := rp[i]; k < rp[i+1]; k++ {
			s += val[k] * x[col[k]]
		}
		x[i] = (b[i] - s) / diag[i]
	}
}

// sweepRows solves rows [lo, hi) of the packed factor p across a
// row-major panel of width kw (kw == 1 is one vector): forward
// substitution over L′, or — when reverse is set and p holds L′ᵀ —
// backward substitution, highest row first. It is the one dispatch point
// between the executor's paths and the kernels.
//
//stsk:noalloc
func sweepRows(p *sparse.Packed, X, B []float64, kw, lo, hi int, reverse bool) {
	switch {
	case kw > 1 && reverse:
		solvePackedUpperRowsBlock(p, X, B, kw, lo, hi)
	case kw > 1:
		solvePackedRowsBlock(p, X, B, kw, lo, hi)
	case reverse:
		solvePackedUpperRows(p, X, B, lo, hi)
	default:
		solvePackedRows(p, X, B, lo, hi)
	}
}
