package solve

import (
	"context"
	"errors"
	"testing"

	"stsk/internal/ichol"
	"stsk/internal/order"
	"stsk/internal/testmat"
)

// TestValuesSwapContract pins the Values.Swap error contract: wrong
// lengths wrap ErrDimension, a zero diagonal is rejected, and a failed
// swap publishes nothing.
func TestValuesSwapContract(t *testing.T) {
	a := testmat.Grid3D(4)
	p := planFor(t, a, order.STS3)
	v := NewValues(p.S)
	if got := v.Version(); got != 0 {
		t.Fatalf("fresh Values at version %d", got)
	}
	nnz := len(p.S.L.Val)
	if err := v.Swap(make([]float64, nnz-1)); !errors.Is(err, ErrDimension) {
		t.Fatalf("short swap: %v, want ErrDimension", err)
	}
	if err := v.Swap(make([]float64, nnz+1)); !errors.Is(err, ErrDimension) {
		t.Fatalf("long swap: %v, want ErrDimension", err)
	}
	zeroed := append([]float64(nil), p.S.L.Val...)
	zeroed[p.S.L.RowPtr[3]-1] = 0 // row 2's diagonal (last stored entry of the row)
	if err := v.Swap(zeroed); err == nil {
		t.Fatal("zero diagonal accepted")
	}
	if got := v.Version(); got != 0 {
		t.Fatalf("version %d after rejected swaps, want 0", got)
	}

	doubled := make([]float64, nnz)
	for k, x := range p.S.L.Val {
		doubled[k] = 2 * x
	}
	if err := v.Swap(doubled); err != nil {
		t.Fatal(err)
	}
	if got := v.Version(); got != 1 {
		t.Fatalf("version %d after swap, want 1", got)
	}
	if &v.Structure().L.Val[0] != &doubled[0] {
		t.Fatal("swap did not publish the new value array")
	}
	if v.Structure().L.Col == nil || &v.Structure().L.Col[0] != &p.S.L.Col[0] {
		t.Fatal("swap did not share the symbolic arrays")
	}
}

// TestValuesDeriveContract: DeriveIC0 publishes nothing on a refusal —
// a breakdown with AutoBoost off returns no sequence and leaves the base
// as it was — and an accepted derived sequence starts at epoch 0 with
// ichol.Factor's values on the base's pattern arrays and packed shape,
// its packed lower layout already built from those values, solves on its
// own values, and keeps them when the base swaps.
func TestValuesDeriveContract(t *testing.T) {
	a := testmat.Grid3D(4)
	p := planFor(t, a, order.STS3)
	v := NewValues(p.S)
	l := p.S.L
	indefinite := append([]float64(nil), l.Val...)
	indefinite[l.RowPtr[6]-1] = -1 // row 5's diagonal
	if err := v.Swap(indefinite); err != nil {
		t.Fatal(err)
	}
	var bd *ichol.Breakdown
	if d, err := v.DeriveIC0(ichol.Options{}, 2); !errors.As(err, &bd) || d != nil {
		t.Fatalf("derive of an indefinite matrix: %v, %v; want a breakdown and no sequence", d, err)
	}
	if v.Version() != 1 || &v.Structure().L.Val[0] != &indefinite[0] {
		t.Fatal("a refused derive changed the base sequence")
	}
	if err := v.Swap(append([]float64(nil), l.Val...)); err != nil {
		t.Fatal(err)
	}

	d, err := v.DeriveIC0(ichol.Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ichol.Factor(l, ichol.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds := d.Structure()
	assertBitwise(t, "derived values", ds.L.Val, want)
	if d.Version() != 0 {
		t.Fatal("derived sequence does not start at epoch 0")
	}
	if &ds.L.RowPtr[0] != &l.RowPtr[0] || &ds.L.Col[0] != &l.Col[0] || &ds.SuperPtr[0] != &p.S.SuperPtr[0] || &ds.PackPtr[0] != &p.S.PackPtr[0] {
		t.Fatal("derived sequence does not share the base's symbolic arrays")
	}
	vs, err := v.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := d.Shape(); s != vs {
		t.Fatal("derived sequence does not share the base's packed shape")
	}
	pk := d.Current().pk // published with the epoch, before any solve pins it
	if pk == nil {
		t.Fatal("derived epoch published without its packed lower layout")
	}
	assertPackedEqual(t, "derived packed", pk, vs.Lower(want))
	if bpk := v.Current().packed(); &pk.RowPtr[0] != &bpk.RowPtr[0] || &pk.Col[0] != &bpk.Col[0] {
		t.Fatal("derived epoch's packed layout does not share the shape's indices")
	}

	e := newEngineVals(t, d, 2)
	defer e.Close()
	B, _ := randomRHS(p, 1, 5)
	wantX, err := Sequential(ds, B[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Swap(append([]float64(nil), indefinite...)); err != nil {
		t.Fatal(err)
	}
	x, err := solveVec(e, B[0])
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "derived after base swap", x, wantX)
	gotU, err := solveUpperVec(e, B[0])
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "derived upper", gotU, upperRef(t, ds, B[0]))
}

// TestEngineSeesSwappedValues: an engine bound to a shared Values must
// solve on the new epoch after a swap, bitwise equal to Sequential over
// the swapped structure — on the cooperative, whole-panel, and upper
// paths.
func TestEngineSeesSwappedValues(t *testing.T) {
	a := testmat.TriMesh(10)
	p := planFor(t, a, order.STS3)
	v := NewValues(p.S)
	e := newEngineVals(t, v, 3)
	defer e.Close()

	B, want := randomRHS(p, 2, 13)
	x, err := solveVec(e, B[0])
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "pre-swap", x, want[0])
	if _, err := solveUpperVec(e, B[0]); err != nil { // builds epoch 0's transpose
		t.Fatal(err)
	}

	scaled := make([]float64, len(p.S.L.Val))
	for k, val := range p.S.L.Val {
		scaled[k] = -3 * val
	}
	if err := v.Swap(scaled); err != nil {
		t.Fatal(err)
	}
	for r := range B {
		wantNew, err := Sequential(v.Structure(), B[r])
		if err != nil {
			t.Fatal(err)
		}
		x, err := solveVec(e, B[r])
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "post-swap coop", x, wantNew)
		X, err := solveBatch(e, [][]float64{B[r], B[r], B[r]}) // panels of 2 and 1
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "post-swap 2-wide panel", X[1], wantNew)
		assertBitwise(t, "post-swap 1-wide panel", X[2], wantNew)
	}
	// The upper path re-derives the transpose for the new epoch.
	gotU, err := solveUpperVec(e, B[0])
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "post-swap upper", gotU, upperRef(t, v.Structure(), B[0]))
}

// TestEpochAccessorsAndOneShot covers the epoch-threaded read paths: the
// engine exposes its Values handle and the live epoch's diagonal, and a
// one-shot Barrier solve over the live epoch's structure (fresh
// goroutines, CSR kernel) agrees bitwise with the engine's pooled solve.
func TestEpochAccessorsAndOneShot(t *testing.T) {
	a := testmat.Grid3D(4)
	p := planFor(t, a, order.STS3)
	v := NewValues(p.S)
	e := newEngineVals(t, v, 2)
	defer e.Close()
	if e.Values() != v {
		t.Fatal("engine does not expose its Values handle")
	}
	l := p.S.L
	diag := e.Diagonal()
	if len(diag) != l.N {
		t.Fatalf("diagonal has %d entries, want %d", len(diag), l.N)
	}
	for i, d := range diag {
		if d != l.Val[l.RowPtr[i+1]-1] {
			t.Fatalf("diagonal[%d] = %v, want %v", i, d, l.Val[l.RowPtr[i+1]-1])
		}
	}

	B, want := randomRHS(p, 1, 7)
	x := make([]float64, l.N)
	if err := Barrier(x, v.Structure(), B[0], BarrierOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "one-shot barrier", x, want[0])
	if err := e.SolveIntoCtx(context.Background(), x, B[0]); err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "pooled", x, want[0])
	if err := Barrier(x, v.Structure(), B[0][:2], BarrierOptions{}); !errors.Is(err, ErrDimension) {
		t.Fatalf("short b: %v, want ErrDimension", err)
	}
}
