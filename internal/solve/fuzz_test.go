package solve

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"stsk/internal/order"
	"stsk/internal/sparse"
)

// matrixFromBytes deterministically derives a structurally symmetric,
// SPD-by-dominance matrix from fuzz input: byte 0 picks the dimension,
// byte pairs add symmetric off-diagonal entries. Every output satisfies
// the pipeline invariants, so the fuzzer explores matrix shapes (chains,
// hubs, near-dense rows, disconnected pieces) rather than input parsing.
func matrixFromBytes(data []byte) *sparse.CSR {
	n := 1 + int(data[0])%48
	coo := sparse.NewCOO(n, 3*n+2*len(data))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for k := 1; k+1 < len(data); k += 2 {
		i, j := int(data[k])%n, int(data[k+1])%n
		if i != j {
			coo.AddSym(i, j, 1)
		}
	}
	m := coo.ToCSR()
	if err := sparse.AssignSPDValues(m); err != nil {
		panic(err) // full diagonal by construction
	}
	return m
}

// rhsFromBytes derives a bounded right-hand side so solutions stay
// well-scaled no matter what the fuzzer feeds in.
func rhsFromBytes(data []byte, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		v := 1.0
		if i < len(data) {
			v = float64(int(data[i])-128) / 32
		}
		b[i] = v
	}
	return b
}

// denseForward is the naive O(n²) reference: expand the permuted factor
// to a dense lower triangle and run textbook forward substitution.
func denseForward(l *sparse.CSR, b []float64) []float64 {
	n := l.N
	dense := make([]float64, n*n)
	for i := 0; i < n; i++ {
		cols, vals := l.Row(i)
		for k, j := range cols {
			dense[i*n+j] = vals[k]
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < i; j++ {
			s += dense[i*n+j] * x[j]
		}
		x[i] = (b[i] - s) / dense[i*n+i]
	}
	return x
}

// FuzzTriangularSolve feeds random well-conditioned systems through the
// whole solve stack: Sequential must agree with the dense O(n²) reference
// to 1e-12, the graph-scheduled engine must agree with Sequential bit for
// bit, and every column of the blocked panel path must too.
func FuzzTriangularSolve(f *testing.F) {
	f.Add([]byte{7})
	f.Add([]byte{13, 1, 2, 2, 3, 3, 4, 0, 4})
	f.Add([]byte{47, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 9, 9})
	f.Add([]byte{32, 250, 1, 17, 30, 2, 9, 4, 4, 11, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		a := matrixFromBytes(data)
		m := order.Methods()[int(data[0])%4]
		p, err := order.Build(a, order.Options{Method: m, RowsPerSuper: 1 + int(data[0])%9})
		if err != nil {
			t.Fatalf("ordering rejected a valid matrix: %v", err)
		}
		b := rhsFromBytes(data, a.N)
		want, err := Sequential(p.S, b)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseForward(p.S.L, b)
		for i := range want {
			if d := math.Abs(want[i] - ref[i]); d > 1e-12*(1+math.Abs(ref[i])) {
				t.Fatalf("Sequential vs dense reference: x[%d] differs by %g", i, d)
			}
		}
		e := newEngine(t, p, 1+int(data[0])%4)
		defer e.Close()
		x, err := solveVec(e, b)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "graph-vs-sequential", x, want)
		// Panel path: three scaled copies of b through the blocked kernels,
		// each column bitwise equal to its own sequential solve.
		B := [][]float64{b, make([]float64, a.N), make([]float64, a.N)}
		for i := range b {
			B[1][i] = 2 * b[i]
			B[2][i] = -0.5 * b[i]
		}
		X := make([][]float64, len(B))
		for i := range X {
			X[i] = make([]float64, a.N)
		}
		if err := e.SolveBlockIntoCtx(context.Background(), X, B); err != nil {
			t.Fatal(err)
		}
		for r := range B {
			col, err := Sequential(p.S, B[r])
			if err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, "block-vs-sequential", X[r], col)
		}
	})
}

// lowerFromBytes derives a lower-triangular CSR with the csrk invariant
// (sorted columns, diagonal last in each row) straight from fuzz bytes —
// no ordering pipeline, so the packed layout is fuzzed directly.
func lowerFromBytes(data []byte) *sparse.CSR {
	n := 1 + int(data[0])%40
	l := &sparse.CSR{N: n, RowPtr: make([]int, n+1)}
	k := 1
	for i := 0; i < n; i++ {
		prev := -1
		for take := 0; take < 3 && k < len(data) && i > 0; take++ {
			j := int(data[k]) % i
			k++
			if j > prev {
				l.Col = append(l.Col, j)
				l.Val = append(l.Val, -1-float64(j%3))
				prev = j
			}
		}
		l.Col = append(l.Col, i)
		l.Val = append(l.Val, 4+float64(i%5))
		l.RowPtr[i+1] = len(l.Col)
	}
	return l
}

// packLowerRef and packUpperRef are the reference packers: a direct
// conversion of the lower CSR (rows ending with the diagonal) and of its
// CSR transpose (rows starting with it) into the packed layout, with no
// shared shape.
func packLowerRef(l *sparse.CSR) *sparse.Packed {
	p := &sparse.Packed{N: l.N, RowPtr: make([]int32, l.N+1), Col: []int32{}, Val: []float64{}, Diag: make([]float64, l.N)}
	for i := 0; i < l.N; i++ {
		lo, hi := l.RowPtr[i], l.RowPtr[i+1]
		p.Diag[i] = l.Val[hi-1]
		for k := lo; k < hi-1; k++ {
			p.Col = append(p.Col, int32(l.Col[k]))
			p.Val = append(p.Val, l.Val[k])
		}
		p.RowPtr[i+1] = int32(len(p.Col))
	}
	return p
}

func packUpperRef(u *sparse.CSR) *sparse.Packed {
	p := &sparse.Packed{N: u.N, RowPtr: make([]int32, u.N+1), Col: []int32{}, Val: []float64{}, Diag: make([]float64, u.N)}
	for i := 0; i < u.N; i++ {
		lo, hi := u.RowPtr[i], u.RowPtr[i+1]
		p.Diag[i] = u.Val[lo]
		for k := lo + 1; k < hi; k++ {
			p.Col = append(p.Col, int32(u.Col[k]))
			p.Val = append(p.Val, u.Val[k])
		}
		p.RowPtr[i+1] = int32(len(p.Col))
	}
	return p
}

// assertPackedEqual fails unless two packed layouts hold the same
// indices and bitwise the same values.
func assertPackedEqual(t *testing.T, label string, got, want *sparse.Packed) {
	t.Helper()
	if got.N != want.N || !slices.Equal(got.RowPtr, want.RowPtr) || !slices.Equal(got.Col, want.Col) {
		t.Fatalf("%s: indices differ from the reference packer", label)
	}
	assertBitwise(t, label+"/val", got.Val, want.Val)
	assertBitwise(t, label+"/diag", got.Diag, want.Diag)
}

// FuzzPackedRoundTrip converts fuzzed lower-triangular factors to the
// compact 32-bit layout and back through the kernels: the shape-packed
// layouts of L and Lᵀ must equal the reference packers' bit for bit (and
// the shape's symmetric assembly SymmetrizePattern's), and sweepRows
// must match the oracles — solveRows forward, sparse.BackwardSubstitution
// backward — bit for bit on one vector and on panels of every kernel
// width.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{5})
	f.Add([]byte{17, 0, 1, 2, 0, 3, 9, 9, 1, 4})
	f.Add([]byte{39, 250, 0, 0, 1, 1, 2, 30, 17, 8, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		l := lowerFromBytes(data)
		n := l.N
		sh, err := sparse.NewPackShape(l)
		if err != nil {
			t.Fatalf("NewPackShape rejected an in-range factor (n=%d nnz=%d): %v", n, l.NNZ(), err)
		}
		pk := sh.Lower(l.Val)
		if pk.NNZ() != l.NNZ() {
			t.Fatalf("packed nnz %d, want %d", pk.NNZ(), l.NNZ())
		}
		assertPackedEqual(t, "lower", pk, packLowerRef(l))
		u := l.Transpose()
		upk := sh.Upper(l.Val, pk.Diag)
		assertPackedEqual(t, "upper", upk, packUpperRef(u))
		a, wantA := sh.Symmetric(l, nil), sparse.SymmetrizePattern(l)
		if !slices.EqualFunc(a.RowPtr, wantA.RowPtr, sameIndex) || !slices.EqualFunc(a.Col, wantA.Col, sameIndex) {
			t.Fatal("symmetric pattern differs from SymmetrizePattern")
		}
		assertBitwise(t, "symmetric", a.Val, wantA.Val)

		b := rhsFromBytes(data, n)
		wantY := make([]float64, n)
		wantA.MatVec(wantY, b)
		gotY := make([]float64, n)
		if err := chunked(a, 3, 3).Apply(a, gotY, b); err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "symmetric-product", gotY, wantY)
		want := make([]float64, n)
		solveRows(l.RowPtr, l.Col, l.Val, want, b, 0, n)
		got := make([]float64, n)
		sweepRows(pk, got, b, 1, 0, n, false)
		assertBitwise(t, "packed-forward", got, want)

		wantU, err := sparse.BackwardSubstitution(u, b)
		if err != nil {
			t.Fatal(err)
		}
		gotU := make([]float64, n)
		sweepRows(upk, gotU, b, 1, 0, n, true)
		assertBitwise(t, "packed-backward", gotU, wantU)

		// Panels of width 2, 4 and 8 against the per-column oracle
		// results, forward and backward.
		for _, kw := range []int{2, 4, 8} {
			panelB := make([]float64, n*kw)
			for j := 0; j < kw; j++ {
				for i := 0; i < n; i++ {
					panelB[i*kw+j] = b[i] * float64(j+1)
				}
			}
			packedX := make([]float64, n*kw)
			sweepRows(pk, packedX, panelB, kw, 0, n, false)
			packedU := make([]float64, n*kw)
			sweepRows(upk, packedU, panelB, kw, 0, n, true)
			for j := 0; j < kw; j++ {
				colB := make([]float64, n)
				for i := 0; i < n; i++ {
					colB[i] = panelB[i*kw+j]
				}
				colX := make([]float64, n)
				solveRows(l.RowPtr, l.Col, l.Val, colX, colB, 0, n)
				colU, err := sparse.BackwardSubstitution(u, colB)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if packedX[i*kw+j] != colX[i] {
						t.Fatalf("width %d panel column %d row %d: %v, want bitwise %v", kw, j, i, packedX[i*kw+j], colX[i])
					}
					if packedU[i*kw+j] != colU[i] {
						t.Fatalf("width %d upper panel column %d row %d: %v, want bitwise %v", kw, j, i, packedU[i*kw+j], colU[i])
					}
				}
			}
		}
	})
}

// TestPackedOverflowFallback is the size-capped synthetic check of the
// int32 limit: a factor whose dimension cannot be indexed in 32 bits must
// be rejected before any array is touched — by NewPackShape and by
// CheckPackable with sparse.ErrTooLarge — and a row missing its trailing
// diagonal must be rejected when the shape is built too.
func TestPackedOverflowFallback(t *testing.T) {
	if err := sparse.CheckPackable(&sparse.CSR{N: math.MaxInt32}); !errors.Is(err, sparse.ErrTooLarge) {
		t.Fatalf("CheckPackable: %v, want ErrTooLarge", err)
	}
	if _, err := sparse.NewPackShape(&sparse.CSR{N: math.MaxInt32}); !errors.Is(err, sparse.ErrTooLarge) {
		t.Fatalf("NewPackShape: %v, want ErrTooLarge for an int32-overflowing dimension", err)
	}
	// Missing trailing diagonal: row 1 ends with column 0.
	bad := &sparse.CSR{N: 2, RowPtr: []int{0, 1, 2}, Col: []int{0, 0}, Val: []float64{1, 1}}
	if _, err := sparse.NewPackShape(bad); err == nil {
		t.Fatal("NewPackShape accepted a factor without trailing diagonals")
	}
}
