package solve

import "stsk/internal/sparse"

// Blocked multi-vector (panel) kernels: forward/backward substitution over
// a row-major n×k panel X, sweeping the matrix once for all k right-hand
// sides. The scalar kernels walk the full index structure once per vector,
// so solving a batch of width k costs k passes over RowPtr/Col/Val; the
// panel kernels load each (col, val) pair once and apply it across the k
// columns with a fixed-width inner loop, cutting the index and value
// traffic — exactly what bounds a cache-resident triangular solve — by the
// panel width. Widths 2, 4 and 8 get dedicated unrolled bodies; other
// widths take the generic body (the panel splitter only ever produces
// {8,4,2}, with remainder columns falling back to the scalar kernel).
//
// Layout: X and B hold row i's k entries at X[i*k : i*k+k]; X may alias B
// for an in-place solve (row i's B entries are read before its X entries
// are written, and every other access is to already-solved rows).
//
// Bitwise contract: column j of the panel accumulates val[k]·X[col·kw+j]
// in the same entry order as the scalar kernels and finishes with the same
// (b − s) / diag, so every panel column is bitwise identical to a scalar
// solve of that column — the equality harnesses of the scalar paths extend
// to panels unchanged.

// solvePackedRowsBlock performs forward substitution for rows [lo, hi) of
// a packed lower factor across a row-major panel of width kw.
//
//stsk:noalloc
func solvePackedRowsBlock(p *sparse.Packed, X, B []float64, kw, lo, hi int) {
	rp, col, val, diag := p.RowPtr, p.Col, p.Val, p.Diag
	switch kw {
	case 8:
		for i := lo; i < hi; i++ {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 8
				s0 += v * X[c]
				s1 += v * X[c+1]
				s2 += v * X[c+2]
				s3 += v * X[c+3]
				s4 += v * X[c+4]
				s5 += v * X[c+5]
				s6 += v * X[c+6]
				s7 += v * X[c+7]
			}
			d := diag[i]
			o := i * 8
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
			X[o+2] = (B[o+2] - s2) / d
			X[o+3] = (B[o+3] - s3) / d
			X[o+4] = (B[o+4] - s4) / d
			X[o+5] = (B[o+5] - s5) / d
			X[o+6] = (B[o+6] - s6) / d
			X[o+7] = (B[o+7] - s7) / d
		}
	case 4:
		for i := lo; i < hi; i++ {
			var s0, s1, s2, s3 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 4
				s0 += v * X[c]
				s1 += v * X[c+1]
				s2 += v * X[c+2]
				s3 += v * X[c+3]
			}
			d := diag[i]
			o := i * 4
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
			X[o+2] = (B[o+2] - s2) / d
			X[o+3] = (B[o+3] - s3) / d
		}
	case 2:
		for i := lo; i < hi; i++ {
			var s0, s1 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 2
				s0 += v * X[c]
				s1 += v * X[c+1]
			}
			d := diag[i]
			o := i * 2
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
		}
	default:
		var s [maxBlockWidth]float64
		for i := lo; i < hi; i++ {
			for j := 0; j < kw; j++ {
				s[j] = 0
			}
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * kw
				for j := 0; j < kw; j++ {
					s[j] += v * X[c+j]
				}
			}
			d := diag[i]
			o := i * kw
			for j := 0; j < kw; j++ {
				X[o+j] = (B[o+j] - s[j]) / d
			}
		}
	}
}

// solvePackedUpperRowsBlock performs backward substitution for rows
// [lo, hi) of a packed upper factor across a row-major panel, highest row
// first.
//
//stsk:noalloc
func solvePackedUpperRowsBlock(p *sparse.Packed, X, B []float64, kw, lo, hi int) {
	rp, col, val, diag := p.RowPtr, p.Col, p.Val, p.Diag
	switch kw {
	case 8:
		for i := hi - 1; i >= lo; i-- {
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 8
				s0 += v * X[c]
				s1 += v * X[c+1]
				s2 += v * X[c+2]
				s3 += v * X[c+3]
				s4 += v * X[c+4]
				s5 += v * X[c+5]
				s6 += v * X[c+6]
				s7 += v * X[c+7]
			}
			d := diag[i]
			o := i * 8
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
			X[o+2] = (B[o+2] - s2) / d
			X[o+3] = (B[o+3] - s3) / d
			X[o+4] = (B[o+4] - s4) / d
			X[o+5] = (B[o+5] - s5) / d
			X[o+6] = (B[o+6] - s6) / d
			X[o+7] = (B[o+7] - s7) / d
		}
	case 4:
		for i := hi - 1; i >= lo; i-- {
			var s0, s1, s2, s3 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 4
				s0 += v * X[c]
				s1 += v * X[c+1]
				s2 += v * X[c+2]
				s3 += v * X[c+3]
			}
			d := diag[i]
			o := i * 4
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
			X[o+2] = (B[o+2] - s2) / d
			X[o+3] = (B[o+3] - s3) / d
		}
	case 2:
		for i := hi - 1; i >= lo; i-- {
			var s0, s1 float64
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * 2
				s0 += v * X[c]
				s1 += v * X[c+1]
			}
			d := diag[i]
			o := i * 2
			X[o] = (B[o] - s0) / d
			X[o+1] = (B[o+1] - s1) / d
		}
	default:
		var s [maxBlockWidth]float64
		for i := hi - 1; i >= lo; i-- {
			for j := 0; j < kw; j++ {
				s[j] = 0
			}
			for k := rp[i]; k < rp[i+1]; k++ {
				v := val[k]
				c := int(col[k]) * kw
				for j := 0; j < kw; j++ {
					s[j] += v * X[c+j]
				}
			}
			d := diag[i]
			o := i * kw
			for j := 0; j < kw; j++ {
				X[o+j] = (B[o+j] - s[j]) / d
			}
		}
	}
}
