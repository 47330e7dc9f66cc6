package stsk

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
)

// TestSolverLifecycleAfterClose is the facade half of the Close-contract
// audit the serve registry depends on: double Close (sequential and
// concurrent) is safe, and every public entry point fails with ErrClosed
// (via errors.Is) after Close.
func TestSolverLifecycleAfterClose(t *testing.T) {
	mat, err := Generate("grid3d", 600)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.N()
	vec := func() []float64 { return make([]float64, n) }
	batch := func() [][]float64 { return [][]float64{vec(), vec()} }
	ctx := context.Background()

	s := plan.NewSolver(WithWorkers(2))
	if _, err := s.SolveUpper(vec()); err != nil { // warm the transpose
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); s.Close() }()
	}
	wg.Wait()

	paths := []struct {
		name string
		call func() error
	}{
		{"Solve", func() error { _, err := s.Solve(vec()); return err }},
		{"SolveInto", func() error { return s.SolveInto(vec(), vec()) }},
		{"SolveIntoCtx", func() error { return s.SolveIntoCtx(ctx, vec(), vec()) }},
		{"SolveUpper", func() error { _, err := s.SolveUpper(vec()); return err }},
		{"SolveUpperInto", func() error { return s.SolveUpperInto(vec(), vec()) }},
		{"SolveUpperIntoCtx", func() error { return s.SolveUpperIntoCtx(ctx, vec(), vec()) }},
		{"SolveBlock", func() error { _, err := s.SolveBlock(ctx, batch()); return err }},
		{"SolveBlockInto", func() error { return s.SolveBlockInto(ctx, batch(), batch()) }},
		{"SolveUpperBlock", func() error { _, err := s.SolveUpperBlock(ctx, batch()); return err }},
		{"SolveUpperBlockInto", func() error { return s.SolveUpperBlockInto(ctx, batch(), batch()) }},
		{"ApplySGSInto", func() error { return s.ApplySGSInto(vec(), vec()) }},
		{"SolveSeq", func() error {
			var last error
			for _, res := range s.SolveSeq(ctx, slices.Values(batch())) {
				last = res.Err
			}
			return last
		}},
	}
	for _, path := range paths {
		if err := path.call(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s after Close: err = %v, want ErrClosed", path.name, err)
		}
	}

	// The plan (and its shared solver) outlive any dedicated solver's
	// Close: Plan.Solve still works.
	if _, err := plan.Solve(vec()); err != nil {
		t.Errorf("Plan.Solve after dedicated solver Close: %v", err)
	}
}

// TestSolverCloseVsInFlightBatch races Close against dispatched block
// calls at the facade — 24 right-hand sides as width-1 and as width-8
// whole panels: every call either completes with correct bits or reports
// ErrClosed, the solver never deadlocks, and a fresh solver on the same
// plan is unaffected.
func TestSolverCloseVsInFlightBatch(t *testing.T) {
	mat, err := Generate("grid3d", 800)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		t.Fatal(err)
	}
	n := plan.N()
	const nrhs = 24
	B := make([][]float64, nrhs)
	want := make([][]float64, nrhs)
	xTrue := make([]float64, n)
	for r := range B {
		for i := range xTrue {
			xTrue[i] = float64((i+3*r)%7) - 3
		}
		B[r] = plan.RHSFor(xTrue)
		if want[r], err = plan.SolveSequential(B[r]); err != nil {
			t.Fatal(err)
		}
	}
	for trial := 0; trial < 20; trial++ {
		s := plan.NewSolver(WithWorkers(3))
		batch := plan.NewSolver(WithWorkers(3), WithBlockWidth(1))
		type result struct {
			X   [][]float64
			err error
		}
		results := make(chan result, 2)
		go func() {
			X, err := batch.SolveBlock(context.Background(), B)
			results <- result{X, err}
		}()
		go func() {
			X, err := s.SolveBlock(context.Background(), B)
			results <- result{X, err}
		}()
		s.Close()
		batch.Close()
		for k := 0; k < 2; k++ {
			res := <-results
			if res.err != nil {
				if !errors.Is(res.err, ErrClosed) {
					t.Fatalf("trial %d: err = %v, want nil or ErrClosed", trial, res.err)
				}
				continue
			}
			for i := range res.X {
				for j := range res.X[i] {
					if res.X[i][j] != want[i][j] {
						t.Fatalf("trial %d: successful call has wrong bits at rhs %d index %d", trial, i, j)
					}
				}
			}
		}
	}
}
