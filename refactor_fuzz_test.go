package stsk

import (
	"errors"
	"math"
	"testing"

	"stsk/internal/testmat"
)

// fuzzValues derives a full value array for m from the fuzzer's bytes:
// each stored entry is rescaled by a byte-driven power of two in
// [2⁻⁸, 2⁸] with byte-driven sign flips, and diagonal entries are kept
// away from zero (a legitimate rejection tested separately) so every
// derived system is solvable.
func fuzzValues(m *Matrix, data []byte) []float64 {
	vals := m.Values()
	if len(data) == 0 {
		data = []byte{0x55}
	}
	for k := range vals {
		b := data[k%len(data)]
		exp := int(b&0x0f) - 8 // 2^-8 .. 2^7
		f := math.Ldexp(1, exp)
		if b&0x10 != 0 {
			f = -f
		}
		vals[k] *= f
	}
	// Clamp diagonals: near-zero pivots stay representable but solvable.
	a := m.a
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] == i {
				if math.Abs(vals[k]) < 1e-6 {
					vals[k] = math.Copysign(1e-6, vals[k]+1e-300)
				}
			}
		}
	}
	return vals
}

// denseLower extracts the plan's permuted lower factor L′ as a dense
// matrix by applying the symmetric operator to unit vectors: column j of
// A′ = L′ + L′ᵀ − D below the diagonal is exactly column j of L′.
func denseLower(p *Plan) [][]float64 {
	n := p.N()
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	e := make([]float64, n)
	col := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		p.ApplySymmetric(col, e)
		e[j] = 0
		for i := j; i < n; i++ {
			L[i][j] = col[i]
		}
	}
	return L
}

// FuzzRefactor drives Plan.Refactor with fuzzed value perturbations on a
// fixed sparsity and checks the whole pipeline against a naive dense
// forward substitution at 1e-12, plus bitwise identity against a plan
// freshly built on the same values — solves and the derived IC(0)
// factor alike — and pins the ErrSparsityMismatch rejection for
// truncated arrays.
func FuzzRefactor(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0x10, 0x08})
	f.Add([]byte("sign flips and near-zero diagonals"))
	f.Add([]byte{0x1f, 0x00, 0x17, 0x09, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		m := &Matrix{a: testmat.Grid3D(4)} // fixed 64-row SPD sparsity
		p, err := Build(m, STS3)
		if err != nil {
			t.Fatal(err)
		}
		vals := fuzzValues(m, data)

		// A truncated array is a sparsity mismatch, and must not publish.
		if err := p.Refactor(vals[:len(vals)-1]); !errors.Is(err, ErrSparsityMismatch) {
			t.Fatalf("truncated values: %v, want ErrSparsityMismatch", err)
		}
		if err := p.Refactor(vals); err != nil {
			t.Fatal(err)
		}

		b := manufacturedB(p, 5)
		x, err := solveWith(p, b, WithWorkers(3))
		if err != nil {
			t.Fatal(err)
		}

		// Naive dense reference on the refactored factor.
		L := denseLower(p)
		ref := make([]float64, p.N())
		for i := range ref {
			s := b[i]
			for j := 0; j < i; j++ {
				s -= L[i][j] * ref[j]
			}
			ref[i] = s / L[i][i]
		}
		for i := range x {
			diff := math.Abs(x[i] - ref[i])
			scale := math.Max(1, math.Abs(ref[i]))
			if diff/scale > 1e-12 || math.IsNaN(x[i]) {
				t.Fatalf("x[%d] = %v, dense reference %v (rel %g)", i, x[i], ref[i], diff/scale)
			}
		}

		// Bitwise identity against a fresh build on the same values.
		if err := m.SetValues(vals); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(m, STS3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("refactored plan differs from rebuild at %d: %v vs %v", i, got[i], want[i])
			}
		}

		// The IC(0) factor derived from the refactored plan equals the
		// fresh build's bit for bit, or both refuse alike.
		icp, errp := p.IC0()
		icf, errf := fresh.IC0()
		if errp != nil || errf != nil {
			if errp == nil || errf == nil || errp.Error() != errf.Error() {
				t.Fatalf("IC0 refusals differ: refactored %v, rebuilt %v", errp, errf)
			}
			return
		}
		assertVecBitwise(t, "ic0 factor", icp.structure().L.Val, icf.structure().L.Val)
	})
}
