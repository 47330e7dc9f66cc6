package solve

import (
	"context"
	"errors"
	"testing"

	"stsk/internal/order"
	"stsk/internal/testmat"
)

// TestEngineSolveBlockBitwise is the engine-level panel acceptance gate:
// for every corpus matrix, method, worker count and batch size 1..9 —
// cooperative single panels and whole-panel splits alike — each column
// of SolveBlockIntoCtx must equal Sequential bit for bit.
func TestEngineSolveBlockBitwise(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		for _, m := range order.Methods() {
			p := planFor(t, ent.A, m)
			B, want := randomRHS(p, 9, 77)
			for _, workers := range []int{1, 4} {
				e := newEngine(t, p, workers)
				for k := 1; k <= len(B); k++ {
					X := make2d(k, ent.A.N)
					if err := e.SolveBlockIntoCtx(context.Background(), X, B[:k], 0); err != nil {
						t.Fatalf("%s/%v/w%d/k=%d: %v", ent.Name, m, workers, k, err)
					}
					for r := 0; r < k; r++ {
						assertBitwise(t, ent.Name+"/"+m.String(), X[r], want[r])
					}
				}
				e.Close()
			}
		}
	}
}

// TestEngineSolveBlockWidths drives the same panel through every
// configured width, including widths that round down and width 1 (panel
// disabled): results must stay bitwise identical regardless of how the
// batch is carved into panels.
func TestEngineSolveBlockWidths(t *testing.T) {
	a := testmat.TriMesh(12)
	p := planFor(t, a, order.STS3)
	B, want := randomRHS(p, 9, 5)
	e := newEngine(t, p, 3)
	defer e.Close()
	X := make2d(len(B), a.N)
	for _, width := range []int{0, 1, 2, 3, 4, 5, 7, 8, 64} {
		for i := range X {
			for j := range X[i] {
				X[i][j] = 0
			}
		}
		if err := e.SolveBlockIntoCtx(context.Background(), X, B, width); err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for r := range X {
			assertBitwise(t, "width", X[r], want[r])
		}
	}
}

// TestEngineSolveUpperBlockBitwise checks the blocked backward sweep —
// cooperative panels of every kernel width and whole-panel splits —
// against the backward-substitution oracle bit for bit.
func TestEngineSolveUpperBlockBitwise(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		p := planFor(t, ent.A, order.STS3)
		B, _ := randomRHS(p, 9, 19)
		want := make([][]float64, len(B))
		for r := range B {
			want[r] = upperRef(t, p.S, B[r])
		}
		for _, workers := range []int{1, 4} {
			e := newEngine(t, p, workers)
			for _, k := range []int{2, 4, 5, 8, 9} {
				X := make2d(k, ent.A.N)
				if err := e.SolveUpperBlockIntoCtx(context.Background(), X, B[:k], 0); err != nil {
					t.Fatalf("%s/w%d/k=%d: %v", ent.Name, workers, k, err)
				}
				for r := range X {
					assertBitwise(t, ent.Name+"/upper", X[r], want[r])
				}
			}
			e.Close()
		}
	}
}

// TestEngineSolveBlockInPlace solves with X[i] aliasing B[i]: packing
// copies the panel out before the sweep, so aliasing must be exact.
func TestEngineSolveBlockInPlace(t *testing.T) {
	a := testmat.Grid3D(5)
	p := planFor(t, a, order.STS3)
	B, want := randomRHS(p, 8, 3)
	e := newEngine(t, p, 3)
	defer e.Close()
	aliased := make([][]float64, len(B))
	for r := range B {
		aliased[r] = append([]float64(nil), B[r]...)
	}
	if err := e.SolveBlockIntoCtx(context.Background(), aliased, aliased, 0); err != nil {
		t.Fatal(err)
	}
	for r := range aliased {
		assertBitwise(t, "in-place", aliased[r], want[r])
	}
}

// TestEngineBlockValidation is the engine-layer half of the validation
// satellite: ragged and wrong-length batches must fail with ErrDimension
// (matched through errors.Is) before any work is dispatched, and a closed
// engine must fail with ErrClosed.
func TestEngineBlockValidation(t *testing.T) {
	a := testmat.Grid3D(4)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 2)
	ctx := context.Background()
	n := a.N
	good := func() [][]float64 {
		v := make([][]float64, 3)
		for i := range v {
			v[i] = make([]float64, n)
		}
		return v
	}
	for _, tc := range []struct {
		name string
		X, B [][]float64
	}{
		{"mismatched batch lengths", good(), good()[:2]},
		{"short rhs", good(), func() [][]float64 { v := good(); v[1] = v[1][:n-1]; return v }()},
		{"long rhs", good(), func() [][]float64 { v := good(); v[2] = make([]float64, n+1); return v }()},
		{"nil rhs", good(), func() [][]float64 { v := good(); v[0] = nil; return v }()},
		{"short solution", func() [][]float64 { v := good(); v[0] = v[0][:1]; return v }(), good()},
	} {
		for _, path := range []struct {
			name string
			call func(X, B [][]float64) error
		}{
			{"block", func(X, B [][]float64) error { return e.SolveBlockIntoCtx(ctx, X, B, 0) }},
			{"upper-block", func(X, B [][]float64) error { return e.SolveUpperBlockIntoCtx(ctx, X, B, 0) }},
			{"batch", func(X, B [][]float64) error { return e.SolveBlockIntoCtx(ctx, X, B, 1) }},
			{"upper-batch", func(X, B [][]float64) error { return e.SolveUpperBlockIntoCtx(ctx, X, B, 1) }},
		} {
			err := path.call(tc.X, tc.B)
			if !errors.Is(err, ErrDimension) {
				t.Errorf("%s/%s: err = %v, want ErrDimension", path.name, tc.name, err)
			}
		}
	}
	e.Close()
	if err := e.SolveBlockIntoCtx(ctx, good(), good(), 0); !errors.Is(err, ErrClosed) {
		t.Errorf("block after close: %v, want ErrClosed", err)
	}
	if err := e.SolveBlockIntoCtx(ctx, good(), good(), 1); !errors.Is(err, ErrClosed) {
		t.Errorf("whole-panel block after close: %v, want ErrClosed", err)
	}
}

// TestEngineBlockCtxCancelled: a dead context fails the call before any
// panel is dispatched, and the engine stays usable.
func TestEngineBlockCtxCancelled(t *testing.T) {
	a := testmat.Grid3D(4)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	B, want := randomRHS(p, 3, 9)
	X := make2d(len(B), a.N)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.SolveBlockIntoCtx(ctx, X, B, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled block: %v, want context.Canceled", err)
	}
	if err := e.SolveBlockIntoCtx(context.Background(), X, B, 0); err != nil {
		t.Fatal(err)
	}
	for r := range X {
		assertBitwise(t, "after-cancel", X[r], want[r])
	}
}

// TestEngineBlockSteadyStateAllocs asserts the panel fast path allocates
// nothing once the pooled scratch is warm.
func TestEngineBlockSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	a := testmat.Grid3D(6)
	p := planFor(t, a, order.STS3)
	B, _ := randomRHS(p, 12, 13)
	X := make2d(len(B), a.N)
	ctx := context.Background()
	e := newEngine(t, p, 3)
	defer e.Close()
	// 8 columns form one cooperative panel; 12 split into whole panels of
	// 8 and 4, each swept by one worker.
	for _, k := range []int{8, 12} {
		for i := 0; i < 3; i++ { // warm panel scratch and the pool
			if err := e.SolveBlockIntoCtx(ctx, X[:k], B[:k], 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := e.SolveBlockIntoCtx(ctx, X[:k], B[:k], 0); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("k=%d: SolveBlockIntoCtx allocates %.1f/op, want 0", k, n)
		}
	}
}

// TestPanelWidthSplit pins the panel carving: greedy widest-first with
// remainder columns falling to the scalar kernel.
func TestPanelWidthSplit(t *testing.T) {
	for _, tc := range []struct {
		rem, width, want int
	}{
		{9, 8, 8}, {8, 8, 8}, {7, 8, 4}, {3, 8, 2}, {2, 8, 2}, {1, 8, 1},
		{7, 4, 4}, {3, 4, 2}, {5, 2, 2}, {1, 2, 1}, {4, 1, 1},
	} {
		if got := panelWidth(tc.rem, tc.width); got != tc.want {
			t.Errorf("panelWidth(%d, %d) = %d, want %d", tc.rem, tc.width, got, tc.want)
		}
	}
	for _, tc := range []struct {
		w, fallback, want int
	}{
		{0, 8, 8}, {0, 4, 4}, {1, 8, 1}, {2, 8, 2}, {3, 8, 2}, {5, 8, 4}, {9, 8, 8}, {64, 8, 8},
	} {
		if got := normalizeBlockWidth(tc.w, tc.fallback); got != tc.want {
			t.Errorf("normalizeBlockWidth(%d, %d) = %d, want %d", tc.w, tc.fallback, got, tc.want)
		}
	}
}
