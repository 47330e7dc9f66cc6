package sparse

import (
	"slices"
	"testing"
)

// lowerFixture is a small lower-triangular system with diagonal last in
// each row (the csrk invariant).
func lowerFixture() *CSR {
	// [ 2 . . ]
	// [ 1 3 . ]
	// [ . 4 5 ]
	return &CSR{
		N:      3,
		RowPtr: []int{0, 1, 3, 5},
		Col:    []int{0, 0, 1, 1, 2},
		Val:    []float64{2, 1, 3, 4, 5},
	}
}

func TestPackLower(t *testing.T) {
	l := lowerFixture()
	sh, err := NewPackShape(l)
	if err != nil {
		t.Fatal(err)
	}
	p := sh.Lower(l.Val)
	if p.N != 3 || p.NNZ() != l.NNZ() {
		t.Fatalf("N=%d NNZ=%d, want 3/%d", p.N, p.NNZ(), l.NNZ())
	}
	wantDiag := []float64{2, 3, 5}
	for i, d := range wantDiag {
		if p.Diag[i] != d {
			t.Fatalf("Diag[%d] = %v, want %v", i, p.Diag[i], d)
		}
	}
	wantPtr := []int32{0, 0, 1, 2}
	for i, w := range wantPtr {
		if p.RowPtr[i] != w {
			t.Fatalf("RowPtr[%d] = %d, want %d", i, p.RowPtr[i], w)
		}
	}
	if p.Col[0] != 0 || p.Val[0] != 1 || p.Col[1] != 1 || p.Val[1] != 4 {
		t.Fatalf("off-diagonals %v/%v wrong", p.Col, p.Val)
	}
}

func TestPackUpper(t *testing.T) {
	l := lowerFixture()
	sh, err := NewPackShape(l)
	if err != nil {
		t.Fatal(err)
	}
	lo := sh.Lower(l.Val)
	p := sh.Upper(l.Val, lo.Diag)
	if &p.Diag[0] != &lo.Diag[0] {
		t.Fatal("the upper layout does not share the lower layout's diagonal")
	}
	wantDiag := []float64{2, 3, 5}
	for i, d := range wantDiag {
		if p.Diag[i] != d {
			t.Fatalf("Diag[%d] = %v, want %v", i, p.Diag[i], d)
		}
	}
	// Row 0 of the transpose holds the off-diagonal (0,1)=1; row 1 holds (1,2)=4.
	if p.Col[0] != 1 || p.Val[0] != 1 || p.Col[1] != 2 || p.Val[1] != 4 {
		t.Fatalf("off-diagonals %v/%v wrong", p.Col, p.Val)
	}
	if p.RowPtr[3] != 2 {
		t.Fatalf("RowPtr end %d, want 2", p.RowPtr[3])
	}
}

// TestShapeSymmetricMatchesSymmetrizePattern: the shape assembles
// A = L + Lᵀ − D exactly as SymmetrizePattern does, pattern and values,
// and a second assembly over new values reuses the first's pattern.
func TestShapeSymmetricMatchesSymmetrizePattern(t *testing.T) {
	l := lowerFixture()
	sh, err := NewPackShape(l)
	if err != nil {
		t.Fatal(err)
	}
	a := sh.Symmetric(l, nil)
	want := SymmetrizePattern(l)
	if !slices.Equal(a.RowPtr, int32s(want.RowPtr)) || !slices.Equal(a.Col, int32s(want.Col)) || !slices.Equal(a.Val, want.Val) {
		t.Fatalf("Symmetric = %+v, want %+v", a, want)
	}
	l2 := &CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: []float64{-2, 7, 3, 8, -5}}
	a2 := sh.Symmetric(l2, a)
	if &a2.Col[0] != &a.Col[0] || &a2.RowPtr[0] != &a.RowPtr[0] {
		t.Fatal("second assembly did not reuse the pattern")
	}
	if want := SymmetrizePattern(l2); !slices.Equal(a2.Val, want.Val) {
		t.Fatalf("regathered values %v, want %v", a2.Val, want.Val)
	}
}

// int32s narrows a CSR index array to the 32-bit layouts' element type.
func int32s(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}
