package stsk

import (
	"errors"
	"slices"
	"sync"
	"testing"

	"stsk/internal/testmat"
)

// TestRefactorRacingSolves flips a plan between two numeric epochs while
// blocked panel batches and ordered streams are in flight. The
// copy-on-write contract: every solved right-hand side must bitwise
// equal the old-epoch or the new-epoch oracle — never a torn mix of the
// two. Run under -race.
func TestRefactorRacingSolves(t *testing.T) {
	m := &Matrix{a: testmat.Grid3D(10)} // 1000 rows
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	v0 := m.Values()
	v1 := make([]float64, len(v0))
	for k := range v0 {
		v1[k] = 2 * v0[k]
	}

	const nrhs = 4
	B := make([][]float64, nrhs)
	oracle0 := make([][]float64, nrhs)
	oracle1 := make([][]float64, nrhs)
	for r := range B {
		B[r] = manufacturedB(p, r)
		if oracle0[r], err = p.SolveSequential(B[r]); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Refactor(v1); err != nil {
		t.Fatal(err)
	}
	for r := range B {
		if oracle1[r], err = p.SolveSequential(B[r]); err != nil {
			t.Fatal(err)
		}
		// The two epochs must be distinguishable, or the torn-result check
		// below would be vacuous.
		if slices.Equal(oracle0[r], oracle1[r]) {
			t.Fatal("epoch oracles coincide")
		}
	}
	if err := p.Refactor(v0); err != nil {
		t.Fatal(err)
	}

	checkEpoch := func(label string, r int, x []float64) {
		if slices.Equal(x, oracle0[r]) || slices.Equal(x, oracle1[r]) {
			return
		}
		t.Errorf("%s: rhs %d matches neither epoch oracle — torn solve", label, r)
	}

	solver := p.NewSolver(WithWorkers(4), WithBlockWidth(4))
	defer solver.Close()
	ctx := t.Context()
	var wg sync.WaitGroup

	// The flipper: alternate the plan between the two value epochs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			v := v0
			if i%2 == 0 {
				v = v1
			}
			if err := p.Refactor(v); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Blocked panel batches: each SolveBlockInto call pins one epoch, so
	// within a call every column comes from the same oracle — but the
	// check is per right-hand side, the stronger claim.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			X := make([][]float64, nrhs)
			for r := range X {
				X[r] = make([]float64, p.N())
			}
			for i := 0; i < 15; i++ {
				if err := solver.SolveBlockInto(ctx, X, B); err != nil {
					t.Error(err)
					return
				}
				for r := range X {
					checkEpoch("block", r, X[r])
				}
			}
		}()
	}

	// Ordered streams: SolveSeq pins an epoch per dispatched job.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			r := 0
			for _, res := range solver.SolveSeq(ctx, slices.Values(B)) {
				if res.Err != nil {
					t.Error(res.Err)
					return
				}
				checkEpoch("stream", r%nrhs, res.X)
				r++
			}
		}
	}()

	// Cooperative single solves ride along.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			x, err := solver.Solve(B[i%nrhs])
			if err != nil {
				t.Error(err)
				return
			}
			checkEpoch("coop", i%nrhs, x)
		}
	}()

	wg.Wait()
}

// TestRefactorRacingClose closes solvers while refactors are in flight:
// solves yield ErrClosed or a complete result, the refactor itself always
// lands atomically — after the dust settles the plan solves on exactly
// the last-published values, never a partial swap.
func TestRefactorRacingClose(t *testing.T) {
	m := &Matrix{a: testmat.TriMesh(12)}
	v0 := m.Values()
	v1 := make([]float64, len(v0))
	for k := range v0 {
		v1[k] = 3 * v0[k]
	}
	for trial := 0; trial < 10; trial++ {
		p, err := Build(m, STS3)
		if err != nil {
			t.Fatal(err)
		}
		b := manufacturedB(p, trial)
		solver := p.NewSolver(WithWorkers(3))
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if err := p.Refactor(v1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := solver.Solve(b); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			solver.Close()
		}()
		wg.Wait()

		// The last published epoch is v1 in full: a one-shot solve and the
		// sequential reference agree bitwise, and both reflect v1.
		if err := m.SetValues(v1); err != nil {
			t.Fatal(err)
		}
		fresh, err := Build(m, STS3)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.SetValues(v0); err != nil { // restore for the next trial
			t.Fatal(err)
		}
		want, err := fresh.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveWith(p, b, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		assertVecBitwise(t, "after close race", got, want)
	}
}

// TestRefactorConcurrentCallers hammers Refactor itself from many
// goroutines (it serialises internally): every call succeeds, the version
// counter counts every publish, and the survivor is one of the candidate
// arrays in full.
func TestRefactorConcurrentCallers(t *testing.T) {
	m := &Matrix{a: testmat.Grid3D(5)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	base := m.Values()
	const callers, rounds = 4, 8
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := perturbValues(base, g+1)
			for i := 0; i < rounds; i++ {
				if err := p.Refactor(vals); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v := p.ValuesVersion(); v != callers*rounds {
		t.Fatalf("version %d after %d refactors", v, callers*rounds)
	}
	// Whatever won, the plan is coherent: parallel equals sequential.
	b := manufacturedB(p, 1)
	want, err := p.SolveSequential(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solveWith(p, b, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "concurrent refactor", got, want)
}
