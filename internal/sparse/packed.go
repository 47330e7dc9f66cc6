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

// PackShape is the value-free index side of the packed layouts of one
// lower-triangular pattern L and of its transpose Lᵀ: the 32-bit row
// pointers and columns of both, and for each off-diagonal slot of Lᵀ the
// index of the L entry it mirrors. It is built once per pattern; every
// value array on that pattern then packs with no index work at all —
// Lower copies each row's off-diagonal values and its diagonal, Upper
// gathers through the map — into Packed layouts that share these index
// arrays.
type PackShape struct {
	n                  int
	lowerPtr, lowerCol []int32 // off-diagonal entries of L, CSR order
	upperPtr, upperCol []int32 // off-diagonal entries of Lᵀ, CSR order
	upperSrc           []int32 // per off-diagonal slot of Lᵀ: its index in L.Val
}

// NewPackShape builds the shape of a lower-triangular CSR whose rows each
// end with the diagonal entry (the csrk invariant). A matrix too large
// for 32-bit indices is refused with an error wrapping ErrTooLarge (see
// CheckPackable), and a row that does not end with its diagonal, or
// stores a column above it, with a plain error.
func NewPackShape(l *CSR) (*PackShape, error) {
	if err := CheckPackable(l); err != nil {
		return nil, err
	}
	n := l.N
	off := max(len(l.Col)-n, 0) // every row contributes exactly one diagonal
	s := &PackShape{
		n:        n,
		lowerPtr: make([]int32, n+1),
		lowerCol: make([]int32, 0, off),
		upperPtr: make([]int32, n+1),
		upperCol: make([]int32, off),
		upperSrc: make([]int32, off),
	}
	for i := 0; i < n; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		if lo == hi || l.Col[hi-1] != i {
			return nil, fmt.Errorf("sparse: row %d does not end with its diagonal entry", i)
		}
		for _, j := range l.Col[lo : hi-1] {
			if j < 0 || j >= i {
				return nil, fmt.Errorf("sparse: row %d stores column %d outside its lower triangle", i, j)
			}
			s.lowerCol = append(s.lowerCol, int32(j))
			s.upperPtr[j+1]++
		}
		s.lowerPtr[i+1] = int32(len(s.lowerCol))
	}
	for i := 0; i < n; i++ {
		s.upperPtr[i+1] += s.upperPtr[i]
	}
	// Scanning L's rows in order fills each row of Lᵀ in ascending column
	// order: the entry order of a CSR transpose.
	next := append([]int32(nil), s.upperPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]-1; k++ {
			j := l.Col[k]
			s.upperCol[next[j]] = int32(i)
			s.upperSrc[next[j]] = int32(k)
			next[j]++
		}
	}
	return s, nil
}

// NewLower returns the layout of L with fresh, zeroed values, for a
// caller that computes the values row by row and writes each row's
// off-diagonals into Val[RowPtr[i]:RowPtr[i+1]] and its diagonal into
// Diag[i].
func (s *PackShape) NewLower() *Packed {
	return &Packed{N: s.n, RowPtr: s.lowerPtr, Col: s.lowerCol,
		Val: make([]float64, len(s.lowerCol)), Diag: make([]float64, s.n)}
}

// Lower packs val, a value array on the shape's pattern in L.Val order,
// into the layout of L: each row's off-diagonal values are copied as one
// run, its diagonal into a fresh Diag.
func (s *PackShape) Lower(val []float64) *Packed {
	p := s.NewLower()
	for i := 0; i < s.n; i++ {
		// Row i starts i diagonals later in L.Val than in the packed array.
		lo, hi := int(s.lowerPtr[i]), int(s.lowerPtr[i+1])
		copy(p.Val[lo:hi], val[lo+i:hi+i])
		p.Diag[i] = val[hi+i]
	}
	return p
}

// Upper packs val, a value array on the shape's pattern in L.Val order,
// into the layout of Lᵀ, gathering each off-diagonal value through the
// shape's map. diag is the Diag of the Lower layout of the same values,
// which the two layouts share.
func (s *PackShape) Upper(val, diag []float64) *Packed {
	p := &Packed{N: s.n, RowPtr: s.upperPtr, Col: s.upperCol,
		Val: make([]float64, len(s.upperSrc)), Diag: diag}
	for k, src := range s.upperSrc {
		p.Val[k] = val[src]
	}
	return p
}

// UpperRow returns row i of Lᵀ's off-diagonal entries: the columns, in
// ascending order, and for each the index in L.Val of the entry of L it
// mirrors. Both slices are the shape's own; callers must not modify them.
func (s *PackShape) UpperRow(i int) (cols, src []int32) {
	lo, hi := s.upperPtr[i], s.upperPtr[i+1]
	return s.upperCol[lo:hi], s.upperSrc[lo:hi]
}

// CSR32 is a square CSR matrix with 32-bit row pointers and columns —
// half the index bytes of CSR's []int in a product's inner loop. It is
// the layout of the symmetric matrix A′ that Krylov iterations multiply
// by (PackShape.Symmetric).
type CSR32 struct {
	N      int
	RowPtr []int32   // len N+1; entries of row i are RowPtr[i]:RowPtr[i+1]
	Col    []int32   // column index per entry, ascending within a row
	Val    []float64 // value per entry
}

// Symmetric assembles A = L + Lᵀ − D, the matrix SymmetrizePattern(l)
// returns, for l on the shape's pattern without transposing it: row i of
// A is row i of l, diagonal last, followed by the off-diagonals of row i
// of Lᵀ. A non-nil prev from an earlier call on this shape lends its
// RowPtr and Col, so only the values are gathered.
func (s *PackShape) Symmetric(l *CSR, prev *CSR32) *CSR32 {
	a := &CSR32{N: s.n}
	if prev != nil {
		a.RowPtr, a.Col = prev.RowPtr, prev.Col
	} else {
		a.RowPtr = make([]int32, s.n+1)
		a.Col = make([]int32, 0, len(l.Col)+len(s.upperCol))
		for i := 0; i < s.n; i++ {
			lo, hi := s.lowerPtr[i], s.lowerPtr[i+1]
			a.Col = append(a.Col, s.lowerCol[lo:hi]...)
			a.Col = append(a.Col, int32(i))
			a.Col = append(a.Col, s.upperCol[s.upperPtr[i]:s.upperPtr[i+1]]...)
			a.RowPtr[i+1] = int32(len(a.Col))
		}
	}
	a.Val = make([]float64, len(a.Col))
	k := 0
	for i := 0; i < s.n; i++ {
		k += copy(a.Val[k:], l.Val[l.RowPtr[i]:l.RowPtr[i+1]])
		for _, src := range s.upperSrc[s.upperPtr[i]:s.upperPtr[i+1]] {
			a.Val[k] = l.Val[src]
			k++
		}
	}
	return a
}
