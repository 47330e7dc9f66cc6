package stsk

// Facade tests of the blocked multi-vector (panel) solve path: bitwise
// equality of every panel column against the sequential baseline across
// the whole corpus, one and several workers, and every batch size around
// the kernel widths; table-driven validation of the ErrDimension/ErrClosed
// contract; concurrency under -race; and the zero-allocation fast path.

import (
	"context"
	"errors"
	"sync"
	"testing"

	"stsk/internal/testmat"
)

// corpusMatrices wraps the shared test corpus as facade matrices.
func corpusMatrices() []struct {
	Name string
	M    *Matrix
} {
	entries := testmat.Corpus()
	out := make([]struct {
		Name string
		M    *Matrix
	}, len(entries))
	for i, e := range entries {
		out[i].Name, out[i].M = e.Name, &Matrix{a: e.A}
	}
	return out
}

// TestSolveBlockBitwiseCorpus is the facade acceptance gate of the panel
// path: for every corpus matrix, all four methods, one and four workers
// and batch sizes 1..9 (straddling every kernel width and remainder
// shape, so both single cooperative panels and whole-panel splits run),
// each SolveBlock column must equal Plan.SolveSequential bit for bit.
func TestSolveBlockBitwiseCorpus(t *testing.T) {
	ctx := context.Background()
	for _, ent := range corpusMatrices() {
		for _, m := range Methods() {
			p, err := Build(ent.M, m, WithRowsPerSuper(8))
			if err != nil {
				t.Fatalf("%s/%v: %v", ent.Name, m, err)
			}
			B, want := manufacturedRHS(p, 9)
			for _, workers := range []int{1, 4} {
				s := p.NewSolver(WithWorkers(workers))
				for k := 1; k <= len(B); k++ {
					X, err := s.SolveBlock(ctx, B[:k])
					if err != nil {
						t.Fatalf("%s/%v/w%d/k=%d: %v", ent.Name, m, workers, k, err)
					}
					for r := 0; r < k; r++ {
						for i := range X[r] {
							if X[r][i] != want[r][i] {
								t.Fatalf("%s/%v/w%d/k=%d: column %d differs from Sequential at %d",
									ent.Name, m, workers, k, r, i)
							}
						}
					}
				}
				s.Close()
			}
		}
	}
}

// TestSolveBlockWidthOption drives one batch through every WithBlockWidth
// setting: carving the batch into different panels must never change a
// bit, and SolveUpperBlock must match the scalar SolveUpper the same way.
// BlockWidth reports each setting rounded down to a kernel width.
func TestSolveBlockWidthOption(t *testing.T) {
	ctx := context.Background()
	mat := &Matrix{a: testmat.TriMesh(14)}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	B, want := manufacturedRHS(p, 9)
	for _, tc := range []struct{ width, kernel int }{{1, 1}, {2, 2}, {3, 2}, {4, 4}, {5, 4}, {8, 8}, {64, 8}} {
		width := tc.width
		s := p.NewSolver(WithWorkers(3), WithBlockWidth(width))
		if got := s.BlockWidth(); got != tc.kernel {
			t.Errorf("width %d: BlockWidth() = %d, want %d", width, got, tc.kernel)
		}
		X, err := s.SolveBlock(ctx, B)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for r := range X {
			for i := range X[r] {
				if X[r][i] != want[r][i] {
					t.Fatalf("width %d: column %d differs at %d", width, r, i)
				}
			}
		}
		s.Close()
	}
	s := p.NewSolver(WithWorkers(3))
	defer s.Close()
	if got := s.BlockWidth(); got != 8 {
		t.Errorf("default BlockWidth() = %d, want 8", got)
	}
	wantU := make([][]float64, len(B))
	for r := range B {
		if wantU[r], err = s.SolveUpper(B[r]); err != nil {
			t.Fatal(err)
		}
	}
	XU, err := s.SolveUpperBlock(ctx, B)
	if err != nil {
		t.Fatal(err)
	}
	for r := range XU {
		for i := range XU[r] {
			if XU[r][i] != wantU[r][i] {
				t.Fatalf("upper: column %d differs at %d", r, i)
			}
		}
	}
}

// TestSolveBlockValidation is the facade half of the validation
// satellite: ragged or wrong-length right-hand sides must fail every
// block entry point with ErrDimension before any work is dispatched, and
// every entry point must fail with ErrClosed after Close — all matched
// through errors.Is.
func TestSolveBlockValidation(t *testing.T) {
	ctx := context.Background()
	mat := &Matrix{a: testmat.Grid3D(4)}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	n := p.N()
	good := func() [][]float64 {
		v := make([][]float64, 3)
		for i := range v {
			v[i] = make([]float64, n)
		}
		return v
	}
	ragged := func(mut func(v [][]float64)) [][]float64 {
		v := good()
		mut(v)
		return v
	}
	s := p.NewSolver(WithWorkers(2))
	badBatches := []struct {
		name string
		B    [][]float64
	}{
		{"short rhs", ragged(func(v [][]float64) { v[1] = v[1][:n-1] })},
		{"long rhs", ragged(func(v [][]float64) { v[2] = make([]float64, n+1) })},
		{"nil rhs", ragged(func(v [][]float64) { v[0] = nil })},
		{"empty rhs", ragged(func(v [][]float64) { v[0] = []float64{} })},
	}
	for _, tc := range badBatches {
		for _, path := range []struct {
			name string
			call func(B [][]float64) error
		}{
			{"SolveBlock", func(B [][]float64) error { _, err := s.SolveBlock(ctx, B); return err }},
			{"SolveBlockInto", func(B [][]float64) error { return s.SolveBlockInto(ctx, good(), B) }},
			{"SolveUpperBlock", func(B [][]float64) error { _, err := s.SolveUpperBlock(ctx, B); return err }},
			{"SolveUpperBlockInto", func(B [][]float64) error { return s.SolveUpperBlockInto(ctx, good(), B) }},
		} {
			if err := path.call(tc.B); !errors.Is(err, ErrDimension) {
				t.Errorf("%s/%s: err = %v, want ErrDimension", path.name, tc.name, err)
			}
		}
	}
	// Ragged solution batches on the Into forms.
	for _, path := range []struct {
		name string
		call func(X [][]float64) error
	}{
		{"SolveBlockInto", func(X [][]float64) error { return s.SolveBlockInto(ctx, X, good()) }},
		{"SolveUpperBlockInto", func(X [][]float64) error { return s.SolveUpperBlockInto(ctx, X, good()) }},
	} {
		if err := path.call(ragged(func(v [][]float64) { v[1] = v[1][:1] })); !errors.Is(err, ErrDimension) {
			t.Errorf("%s/short solution: err = %v, want ErrDimension", path.name, err)
		}
		if err := path.call(good()[:2]); !errors.Is(err, ErrDimension) {
			t.Errorf("%s/mismatched lengths: err = %v, want ErrDimension", path.name, err)
		}
	}
	s.Close()
	for _, path := range []struct {
		name string
		call func() error
	}{
		{"SolveBlock", func() error { _, err := s.SolveBlock(ctx, good()); return err }},
		{"SolveBlockInto", func() error { return s.SolveBlockInto(ctx, good(), good()) }},
		{"SolveUpperBlock", func() error { _, err := s.SolveUpperBlock(ctx, good()); return err }},
		{"SolveUpperBlockInto", func() error { return s.SolveUpperBlockInto(ctx, good(), good()) }},
		{"Solve", func() error { _, err := s.Solve(make([]float64, n)); return err }},
	} {
		if err := path.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", path.name, err)
		}
	}
}

// TestSolveBlockConcurrent hammers one Solver with concurrent panel
// batches from many goroutines — the -race gate for the shared panel
// scratch pool and the serialised cooperative sweeps — at 8 and 1
// columns per panel.
func TestSolveBlockConcurrent(t *testing.T) {
	ctx := context.Background()
	mat := &Matrix{a: testmat.TriMesh(14)}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	B, want := manufacturedRHS(p, 9)
	for _, width := range []int{8, 1} {
		s := p.NewSolver(WithWorkers(4), WithBlockWidth(width))
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < 4; it++ {
					k := 1 + (g+it)%len(B)
					X, err := s.SolveBlock(ctx, B[:k])
					if err != nil {
						t.Error(err)
						return
					}
					for r := range X {
						for i := range X[r] {
							if X[r][i] != want[r][i] {
								t.Errorf("concurrent block: column %d differs at %d", r, i)
								return
							}
						}
					}
				}
			}(g)
		}
		wg.Wait()
		s.Close()
	}
}

// TestSolveBlockSteadyStateAllocs asserts the acceptance criterion that
// the facade panel fast path allocates nothing once warm — one
// cooperative panel (8 columns) and a whole-panel split (12 columns as
// panels of 8 and 4), at one worker and on the pool.
func TestSolveBlockSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	ctx := context.Background()
	mat := &Matrix{a: testmat.Grid3D(6)}
	p, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	B, _ := manufacturedRHS(p, 12)
	X := make([][]float64, len(B))
	for i := range X {
		X[i] = make([]float64, p.N())
	}
	for _, workers := range []int{1, 4} {
		s := p.NewSolver(WithWorkers(workers))
		for _, k := range []int{8, 12} {
			for i := 0; i < 3; i++ { // warm pools and panel scratch
				if err := s.SolveBlockInto(ctx, X[:k], B[:k]); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(50, func() {
				if err := s.SolveBlockInto(ctx, X[:k], B[:k]); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("w%d/k=%d: SolveBlockInto allocates %.1f/op, want 0", workers, k, n)
			}
		}
		s.Close()
	}
}
