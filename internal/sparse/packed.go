package sparse

import (
	"errors"
	"fmt"
	"math"
)

// Packed is the compact structure-of-arrays layout the solve kernels
// stream: 32-bit row offsets and column indices over the off-diagonal
// entries only, with the diagonal pulled out into its own dense array.
//
// Relative to walking a CSR with 64-bit []int indices, a Packed matrix
// halves the index bytes moving through the innermost triangular-solve
// loop — on matrices whose packs fit in cache the solve is bandwidth-
// bound on exactly that traffic — and the separate diagonal removes the
// end-of-row branch from the kernel. Entries of a row keep their CSR
// order, so a kernel sweeping a Packed matrix accumulates each row's dot
// product in the same order as the CSR kernels and produces bitwise
// identical results.
//
// Values are stored level-contiguously for free: the ordering pipeline
// lays packs out as contiguous row ranges, so the off-diagonal Val array
// is walked front to back across a pack with no striding.
type Packed struct {
	N      int
	RowPtr []int32   // len N+1; off-diagonal entries of row i are RowPtr[i]:RowPtr[i+1]
	Col    []int32   // column index per off-diagonal entry
	Val    []float64 // value per off-diagonal entry, CSR order
	Diag   []float64 // diagonal entry per row
}

// NNZ returns the number of stored entries including the diagonal.
func (p *Packed) NNZ() int { return len(p.Col) + p.N }

// ErrTooLarge is wrapped by CheckPackable: the matrix's dimension or entry
// count does not fit the packed layout's 32-bit indices.
var ErrTooLarge = errors.New("sparse: matrix too large for 32-bit indices")

// CheckPackable reports, with an error wrapping ErrTooLarge, a matrix
// whose dimension or entry count the packed layout cannot index. It reads
// only N and the length of Col, so a header-only CSR can be checked.
func CheckPackable(m *CSR) error {
	if m.N >= math.MaxInt32 || len(m.Col) >= math.MaxInt32 {
		return fmt.Errorf("%w: n=%d, %d stored entries", ErrTooLarge, m.N, len(m.Col))
	}
	return nil
}

// PackLower converts a lower-triangular CSR whose rows each end with the
// diagonal entry (the csrk invariant) into the packed layout. ok is false
// when the matrix is too large for 32-bit indexing (see CheckPackable) or
// a row is missing its trailing diagonal.
func PackLower(l *CSR) (p *Packed, ok bool) {
	if CheckPackable(l) != nil {
		return nil, false
	}
	p = newPacked(l)
	for i := 0; i < l.N; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if lo == hi || l.Col[hi-1] != i {
			return nil, false
		}
		p.Diag[i] = l.Val[hi-1]
		for k := lo; k < hi-1; k++ {
			p.Col = append(p.Col, int32(l.Col[k]))
			p.Val = append(p.Val, l.Val[k])
		}
		p.RowPtr[i+1] = int32(len(p.Col))
	}
	return p, true
}

// PackUpper converts an upper-triangular CSR whose rows each start with
// the diagonal entry (the transposed-factor invariant) into the packed
// layout.
func PackUpper(u *CSR) (p *Packed, ok bool) {
	if CheckPackable(u) != nil {
		return nil, false
	}
	p = newPacked(u)
	for i := 0; i < u.N; i++ {
		lo, hi := u.RowPtr[i], u.RowPtr[i+1]
		if lo == hi || u.Col[lo] != i {
			return nil, false
		}
		p.Diag[i] = u.Val[lo]
		for k := lo + 1; k < hi; k++ {
			p.Col = append(p.Col, int32(u.Col[k]))
			p.Val = append(p.Val, u.Val[k])
		}
		p.RowPtr[i+1] = int32(len(p.Col))
	}
	return p, true
}

func newPacked(m *CSR) *Packed {
	off := len(m.Col) - m.N // every row contributes exactly one diagonal
	if off < 0 {
		off = 0
	}
	return &Packed{
		N:      m.N,
		RowPtr: make([]int32, m.N+1),
		Col:    make([]int32, 0, off),
		Val:    make([]float64, 0, off),
		Diag:   make([]float64, m.N),
	}
}
