package solve

import (
	"fmt"
	"math"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// TestSweepRowsRanges holds sweepRows to the CSR oracles — solveRows
// forward, sparse.BackwardSubstitution backward — on every corpus
// matrix, both directions and every kernel width, over the row ranges
// the engine's DAG tasks sweep: the whole factor, ranges starting past
// row 0, an empty range, one row, the first and the last row. The rows
// a range reads but does not solve hold the oracle's solution; the
// range itself and the rows it never reads start as NaN. Afterwards the
// range must equal the oracle bit for bit and every other row must be
// untouched.
func TestSweepRowsRanges(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		p := planFor(t, ent.A, order.STS3)
		n, l := p.S.L.N, p.S.L
		ep := NewValues(p.S).Current()
		u := l.Transpose()
		B, _ := randomRHS(p, MaxPanelWidth, 31)
		fwd := make([][]float64, len(B))
		bwd := make([][]float64, len(B))
		for j, b := range B {
			fwd[j] = make([]float64, n)
			solveRows(l.RowPtr, l.Col, l.Val, fwd[j], b, 0, n)
			var err error
			if bwd[j], err = sparse.BackwardSubstitution(u, b); err != nil {
				t.Fatal(err)
			}
		}
		ranges := [][2]int{{0, n}, {n / 3, n}, {n / 3, 2 * n / 3}, {n / 2, n / 2}, {n / 2, n/2 + 1}, {0, 1}, {n - 1, n}}
		for _, reverse := range []bool{false, true} {
			pk, oracle := ep.packed(), fwd
			if reverse {
				pk, oracle = ep.packedUpper(), bwd
			}
			for _, kw := range []int{1, 2, 4, 8} {
				panelB := make([]float64, n*kw)
				for i := 0; i < n; i++ {
					for j := 0; j < kw; j++ {
						panelB[i*kw+j] = B[j][i]
					}
				}
				for _, r := range ranges {
					lo, hi := r[0], r[1]
					label := fmt.Sprintf("%s/reverse=%v/w%d/[%d,%d)", ent.Name, reverse, kw, lo, hi)
					// Forward reads the rows below lo, backward those at
					// or above hi.
					read := func(i int) bool { return i < lo }
					if reverse {
						read = func(i int) bool { return i >= hi }
					}
					X := make([]float64, n*kw)
					for i := 0; i < n; i++ {
						for j := 0; j < kw; j++ {
							X[i*kw+j] = math.NaN()
							if read(i) {
								X[i*kw+j] = oracle[j][i]
							}
						}
					}
					sweepRows(pk, X, panelB, kw, lo, hi, reverse)
					for i := 0; i < n; i++ {
						for j := 0; j < kw; j++ {
							got := X[i*kw+j]
							switch {
							case i >= lo && i < hi || read(i):
								if got != oracle[j][i] {
									t.Fatalf("%s: row %d column %d = %v, want bitwise %v", label, i, j, got, oracle[j][i])
								}
							case !math.IsNaN(got):
								t.Fatalf("%s: row %d outside the range written (%v)", label, i, got)
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkSweepRows times the packed kernel alone: one sweep over every
// row of a grid3d STS-3 factor (27³ and 46³ points), forward over L′ and
// backward over L′ᵀ, on panels of each kernel width. ns/rhs divides a
// sweep's time by its panel width.
func BenchmarkSweepRows(b *testing.B) {
	for _, side := range []int{27, 46} {
		p, err := order.Build(gen.Grid3D(side, side, side), order.Options{Method: order.STS3})
		if err != nil {
			b.Fatal(err)
		}
		n := p.S.L.N
		ep := NewValues(p.S).Current()
		for _, reverse := range []bool{false, true} {
			pk, dir := ep.packed(), "forward"
			if reverse {
				pk, dir = ep.packedUpper(), "backward"
			}
			for _, kw := range []int{1, 2, 4, 8} {
				B := make([]float64, n*kw)
				for i := range B {
					B[i] = float64(i%11) - 5
				}
				X := make([]float64, n*kw)
				b.Run(fmt.Sprintf("n=%d/%s/w%d", n, dir, kw), func(b *testing.B) {
					for b.Loop() {
						sweepRows(pk, X, B, kw, 0, n, reverse)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*kw), "ns/rhs")
				})
			}
		}
	}
}
