package solve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stsk/internal/csrk"
	"stsk/internal/faultinject"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// newEngine starts an engine over p's structure with a fine-grained task
// DAG, so even small test matrices exercise real task graphs.
func newEngine(t testing.TB, p *order.Plan, workers int) *Engine {
	t.Helper()
	return newEngineVals(t, NewValues(p.S), workers)
}

// newEngineVals is newEngine over a shared value-epoch sequence. Unless
// the sequence's pattern has derived its task DAG already, it seeds it
// with the fine carving first.
func newEngineVals(t testing.TB, v *Values, workers int) *Engine {
	t.Helper()
	seedTaskDAG(v, order.BuildTaskDAG(v.Structure(), order.TaskDAGOptions{SplitPerPack: 4, MinTaskNNZ: 16}))
	e, err := NewEngine(v, workers)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// seedTaskDAG makes dag the task DAG of v's pattern — the one every
// engine and factorisation over the pattern schedules over — unless the
// pattern has derived its own already.
func seedTaskDAG(v *Values, dag *csrk.TaskDAG) {
	v.pat.dagOnce.Do(func() { v.pat.dag = dag })
}

// solveVec solves L′x = b cooperatively into a fresh vector.
func solveVec(e *Engine, b []float64) ([]float64, error) {
	x := make([]float64, e.n)
	if err := e.SolveIntoCtx(context.Background(), x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// solveUpperVec solves L′ᵀx = b cooperatively into a fresh vector.
func solveUpperVec(e *Engine, b []float64) ([]float64, error) {
	x := make([]float64, e.n)
	if err := e.SolveUpperIntoCtx(context.Background(), x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// solveBatch solves B in one block call into fresh vectors: a batch of
// other than 1, 2, 4 or 8 columns carves into several panels, each swept
// start to finish by one participant.
func solveBatch(e *Engine, B [][]float64) ([][]float64, error) {
	X := make2d(len(B), e.n)
	if err := e.SolveBlockIntoCtx(context.Background(), X, B); err != nil {
		return nil, err
	}
	return X, nil
}

// upperRef is the backward-substitution oracle for L′ᵀx = b.
func upperRef(t testing.TB, s *csrk.Structure, b []float64) []float64 {
	t.Helper()
	x, err := sparse.BackwardSubstitution(s.L.Transpose(), b)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// randomRHS manufactures nrhs right-hand sides with known solutions.
func randomRHS(p *order.Plan, nrhs int, seed int64) (B [][]float64, want [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := p.S.L.N
	for r := 0; r < nrhs; r++ {
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		B = append(B, sparse.RHSForSolution(p.S.L, xTrue))
	}
	for _, b := range B {
		x, err := Sequential(p.S, b)
		if err != nil {
			panic(err)
		}
		want = append(want, x)
	}
	return B, want
}

// assertBitwise fails unless got equals want entry for entry — the engine
// performs each row's dot product in Sequential's order, so results must
// be bitwise identical, not merely close.
func assertBitwise(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: x[%d] = %v, want bitwise %v", label, i, got[i], want[i])
		}
	}
}

func TestEngineSolveMatchesSequentialBitwise(t *testing.T) {
	for _, ent := range append(testmat.Corpus(), testmat.Entry{Name: "roadnet", A: gen.RoadNet(6, 6, 3, 5, 1)}) {
		name, a := ent.Name, ent.A
		for _, m := range order.Methods() {
			p := planFor(t, a, m)
			B, want := randomRHS(p, 3, 11)
			for _, workers := range []int{1, 3, 8} {
				e := newEngine(t, p, workers)
				for r := range B {
					x, err := solveVec(e, B[r])
					if err != nil {
						t.Fatal(err)
					}
					assertBitwise(t, name+"/"+m.String(), x, want[r])
				}
				e.Close()
			}
		}
	}
}

// TestEngineSolveBatchBitwise drives the multi-panel path — 16 columns
// as two 8-wide panels, one worker per panel — including X[i] aliasing
// B[i].
func TestEngineSolveBatchBitwise(t *testing.T) {
	for _, m := range order.Methods() {
		a := gen.Grid3D(7, 7, 7)
		p := planFor(t, a, m)
		B, want := randomRHS(p, 16, 23)
		e := newEngine(t, p, 4)
		defer e.Close()
		X, err := solveBatch(e, B)
		if err != nil {
			t.Fatal(err)
		}
		for r := range X {
			assertBitwise(t, m.String(), X[r], want[r])
		}
		// In-place: X[i] aliasing B[i] must still be exact.
		aliased := make([][]float64, len(B))
		for r := range B {
			aliased[r] = append([]float64(nil), B[r]...)
		}
		if err := e.SolveBlockIntoCtx(context.Background(), aliased, aliased); err != nil {
			t.Fatal(err)
		}
		for r := range aliased {
			assertBitwise(t, m.String()+"/in-place", aliased[r], want[r])
		}
	}
}

// TestEngineUpperMatchesUpperSolver checks the engine's backward sweeps —
// cooperative and whole-panel — against the backward-substitution oracle
// bit for bit.
func TestEngineUpperMatchesUpperSolver(t *testing.T) {
	a := gen.Grid2D(12, 12)
	for _, m := range order.Methods() {
		p := planFor(t, a, m)
		rng := rand.New(rand.NewSource(7))
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		want := upperRef(t, p.S, b)
		e := newEngine(t, p, 4)
		x, err := solveUpperVec(e, b)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, m.String()+"/coop", x, want)
		X := make2d(3, a.N) // panels of 2 and 1
		if err := e.SolveUpperBlockIntoCtx(context.Background(), X, [][]float64{b, b, b}); err != nil {
			t.Fatal(err)
		}
		for r := range X {
			assertBitwise(t, m.String()+"/whole", X[r], want)
		}
		e.Close()
	}
}

// TestEngineConcurrentSolves hammers one engine from many goroutines with
// a mix of cooperative, upper, and multi-panel solves — the race-detector
// test for the shared pool.
func TestEngineConcurrentSolves(t *testing.T) {
	a := gen.TriMesh(12, 12, 3)
	p := planFor(t, a, order.STS3)
	B, want := randomRHS(p, 6, 43)
	e := newEngine(t, p, 4)
	defer e.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				switch g % 3 {
				case 0:
					x, err := solveVec(e, B[it%len(B)])
					if err != nil {
						errs <- err
						return
					}
					for i := range x {
						if x[i] != want[it%len(B)][i] {
							t.Errorf("coop mismatch at %d", i)
							return
						}
					}
				case 1:
					if _, err := solveUpperVec(e, B[it%len(B)]); err != nil {
						errs <- err
						return
					}
				default:
					X, err := solveBatch(e, B)
					if err != nil {
						errs <- err
						return
					}
					for r := range X {
						for i := range X[r] {
							if X[r][i] != want[r][i] {
								t.Errorf("batch mismatch rhs %d at %d", r, i)
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEngineCloseRacingSolves closes engines while solves are in flight:
// every solve must either complete or return ErrClosed — never deadlock
// (run under -race and without).
func TestEngineCloseRacingSolves(t *testing.T) {
	a := gen.Grid2D(10, 10)
	p := planFor(t, a, order.STS3)
	B, _ := randomRHS(p, 3, 3)
	for trial := 0; trial < 20; trial++ {
		e := newEngine(t, p, 4)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					var err error
					if g%2 == 0 {
						_, err = solveVec(e, B[i%2])
					} else {
						_, err = solveBatch(e, B)
					}
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Error(err)
						}
						return
					}
				}
			}(g)
		}
		e.Close()
		wg.Wait()
	}
}

// TestEngineCoopSolvesSideBySide: cooperative solves on one engine run
// side by side, each on its own pooled run state. The first is held up
// 300 ms by an injected latency on one of its shares; a second issued
// while it is held must not queue behind it.
func TestEngineCoopSolvesSideBySide(t *testing.T) {
	p := planFor(t, gen.Grid2D(20, 20), order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	B, want := randomRHS(p, 2, 17)
	withFaults(t, "engine.job:latency:d=300ms,count=1", 1)

	first := make(chan []float64, 1)
	go func() {
		x, err := solveVec(e, B[0])
		if err != nil {
			t.Error(err)
		}
		first <- x
	}()
	for faultinject.Fired(faultinject.EngineJob) == 0 {
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	x, err := solveVec(e, B[1])
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "second solve", x, want[1])
	if took >= 150*time.Millisecond {
		t.Errorf("second solve took %v beside a held one, want < 150ms", took)
	}
	if x := <-first; x != nil {
		assertBitwise(t, "held solve", x, want[0])
	}
}

func TestEngineClosed(t *testing.T) {
	a := gen.Grid2D(8, 8)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 2)
	b := make([]float64, a.N)
	if _, err := solveVec(e, b); err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close() // idempotent
	if _, err := solveVec(e, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("solve after close: %v, want ErrClosed", err)
	}
	if _, err := solveBatch(e, [][]float64{b, b, b}); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after close: %v, want ErrClosed", err)
	}
}

func TestEngineBadLengths(t *testing.T) {
	a := gen.Grid2D(8, 8)
	p := planFor(t, a, order.STS3)
	e := newEngine(t, p, 2)
	defer e.Close()
	if _, err := solveVec(e, make([]float64, 3)); err == nil {
		t.Fatal("short rhs accepted")
	}
	if err := e.SolveBlockIntoCtx(context.Background(), [][]float64{make([]float64, a.N)}, nil); err == nil {
		t.Fatal("mismatched batch lengths accepted")
	}
	if _, err := solveBatch(e, [][]float64{make([]float64, 2)}); err == nil {
		t.Fatal("short batch rhs accepted")
	}
}

// TestNewEngineRefusesOversizeFactor: a factor the packed layout cannot
// index is refused at construction with sparse.ErrTooLarge.
func TestNewEngineRefusesOversizeFactor(t *testing.T) {
	s := &csrk.Structure{L: &sparse.CSR{N: math.MaxInt32}}
	if _, err := NewEngine(NewValues(s), 1); !errors.Is(err, sparse.ErrTooLarge) {
		t.Fatalf("oversize factor: err = %v, want ErrTooLarge", err)
	}
}
