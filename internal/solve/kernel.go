package solve

import "stsk/internal/sparse"

// The packed triangular kernel: substitution over a pack's rows (the
// paper's Algorithm 1) on the compact structure-of-arrays layout —
// 32-bit row offsets and column indices over off-diagonal entries, the
// diagonal in its own array — across a row-major n×kw panel of
// right-hand sides. Halving the index bytes matters because a
// cache-resident triangular solve is bound by exactly that traffic, and
// a panel loads each (col, val) pair once for all kw columns, cutting it
// by the panel width again.
//
// Layout: X and B hold row i's kw entries at X[i*kw : i*kw+kw] (kw = 1 is
// one vector); X may alias B for an in-place solve (row i's B entries are
// read before its X entries are written, and every other access is to
// already-solved rows).
//
// Bitwise contract: column j accumulates val[k]·X[col·kw+j] in the CSR
// kernels' entry order and finishes with the same (b − s) / diag, so every
// panel column is bitwise identical to Sequential's solve of that column.

// MaxPanelWidth is the widest panel sweepRows unrolls for, and the width
// the pooled panel scratch is provisioned at.
const MaxPanelWidth = 8

// panelWidth is the width of the next panel carved off rem unsolved
// columns: the widest of 8, 4, 2 and 1 that rem fills, so a call is
// carved greedily widest-first.
func panelWidth(rem int) int {
	for w := MaxPanelWidth; w > 1; w >>= 1 {
		if rem >= w {
			return w
		}
	}
	return 1
}

// sweepRows solves rows [lo, hi) of the packed factor p across a
// row-major panel of width kw ∈ {1, 2, 4, 8}: forward substitution over
// L′, lowest row first, or — when reverse is set and p holds L′ᵀ —
// backward substitution, highest row first. It is the only kernel the
// engine sweeps a packed factor with.
//
//stsk:noalloc
func sweepRows(p *sparse.Packed, X, B []float64, kw, lo, hi int, reverse bool) {
	rp, col, val, diag := p.RowPtr, p.Col, p.Val, p.Diag
	i, end, step := lo, hi, 1
	if reverse {
		i, end, step = hi-1, lo-1, -1
	}
	switch kw {
	case 1:
		for ; i != end; i += step {
			s := 0.0
			for k := rp[i]; k < rp[i+1]; k++ {
				s += val[k] * X[col[k]]
			}
			X[i] = (B[i] - s) / diag[i]
		}
	case 2:
		for ; i != end; i += step {
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
	case 4:
		for ; i != end; i += step {
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
	case 8:
		for ; i != end; i += step {
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
	default:
		panic("solve: panel width is not 1, 2, 4 or 8")
	}
}
