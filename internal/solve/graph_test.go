package solve

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stsk/internal/gen"
	"stsk/internal/ichol"
	"stsk/internal/order"
	"stsk/internal/testmat"
)

// TestGraphSolveMatchesSequentialBitwise is the core correctness gate of
// the point-to-point scheduler: for every method and several worker
// counts, graph-scheduled solves must equal Sequential bit for bit.
func TestGraphSolveMatchesSequentialBitwise(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		name, a := ent.Name, ent.A
		for _, m := range order.Methods() {
			p := planFor(t, a, m)
			B, want := randomRHS(p, 3, 17)
			for _, workers := range []int{2, 3, 8} {
				e := newEngine(t, p, workers)
				for r := range B {
					x, err := solveVec(e, B[r])
					if err != nil {
						t.Fatal(err)
					}
					assertBitwise(t, name+"/"+m.String()+"/graph", x, want[r])
				}
				e.Close()
			}
		}
	}
}

// TestGraphSolveUpperBitwise checks the reverse sweep: the graph schedule
// runs the DAG backwards (successors become prerequisites) and must match
// the backward-substitution oracle bitwise.
func TestGraphSolveUpperBitwise(t *testing.T) {
	a := gen.Grid2D(12, 12)
	for _, m := range order.Methods() {
		p := planFor(t, a, m)
		rng := rand.New(rand.NewSource(3))
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
		assertBitwise(t, m.String()+"/graph-upper", x, want)
		e.Close()
	}
}

// TestGraphScheduleFallsBackWithoutDAG: an engine given no DAG falls
// back to its value sequence's own. One of several workers sweeps bit
// for bit like one given order.BuildTaskDAG's default carving, forward,
// backward and in a multi-panel call; a one-worker engine sweeps inline,
// equal to the sequential oracles.
func TestGraphScheduleFallsBackWithoutDAG(t *testing.T) {
	p := planFor(t, gen.Grid2D(10, 10), order.STS3)
	B, want := randomRHS(p, 3, 9)
	wantU := upperRef(t, p.S, B[0])
	dag := order.BuildTaskDAG(p.S, order.TaskDAGOptions{})
	for _, opts := range []Options{{Workers: 3}, {Workers: 3, Graph: dag}, {Workers: 1}} {
		e, err := NewEngine(NewValues(p.S), opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		x, err := solveVec(e, B[0])
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "fallback", x, want[0])
		x, err = solveUpperVec(e, B[0])
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "fallback-upper", x, wantU)
		X, err := solveBatch(e, B)
		if err != nil {
			t.Fatal(err)
		}
		for r := range X {
			assertBitwise(t, "fallback-panels", X[r], want[r])
		}
		e.Close()
	}
}

// TestValuesTaskDAGPerPattern: a value sequence derives one task DAG for
// its pattern — order.BuildTaskDAG's default carving, built on first use
// and kept across swaps — and shares it with the sequences derived from
// it. A one-worker engine schedules over none and builds none.
func TestValuesTaskDAGPerPattern(t *testing.T) {
	p := planFor(t, gen.Grid2D(12, 12), order.STS3)
	v := NewValues(p.S)
	e, err := NewEngine(v, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if v.pat.dag != nil {
		t.Fatal("a one-worker engine built the task DAG")
	}
	e, err = NewEngine(v, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	dag := v.pat.dag
	if dag == nil || e.opts.Graph != dag {
		t.Fatal("a two-worker engine does not schedule over the sequence's task DAG")
	}
	if !reflect.DeepEqual(dag, order.BuildTaskDAG(p.S, order.TaskDAGOptions{})) {
		t.Fatal("the sequence's task DAG is not the default carving")
	}
	doubled := make([]float64, len(p.S.L.Val))
	for k, x := range p.S.L.Val {
		doubled[k] = 2 * x
	}
	d, err := v.DeriveIC0(ichol.Options{AutoBoost: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Swap(append([]float64(nil), doubled...)); err != nil {
		t.Fatal(err)
	}
	if v.TaskDAG() != dag || d.TaskDAG() != dag {
		t.Fatal("the task DAG is not shared across epochs and derived sequences")
	}
}

// TestGraphScheduleRejectsForeignDAG: a DAG built for another structure
// is refused rather than drive an out-of-bounds or racing schedule.
func TestGraphScheduleRejectsForeignDAG(t *testing.T) {
	small := planFor(t, gen.Grid2D(8, 8), order.STS3)
	big := planFor(t, gen.Grid2D(12, 12), order.STS3)
	dag := order.BuildTaskDAG(big.S, order.TaskDAGOptions{})
	if _, err := NewEngine(NewValues(small.S), Options{Workers: 2, Graph: dag}); err == nil {
		t.Fatal("foreign DAG accepted")
	}
}

// TestGraphConcurrentSolves hammers one graph-scheduled engine with a mix
// of cooperative forward/backward solves and multi-panel calls from many
// goroutines — the race-detector gate for the P2P scheduler state.
func TestGraphConcurrentSolves(t *testing.T) {
	a := gen.TriMesh(12, 12, 3)
	p := planFor(t, a, order.STS3)
	B, want := randomRHS(p, 6, 29)
	e := newEngine(t, p, 4)
	defer e.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 5; it++ {
				switch g % 3 {
				case 0:
					x, err := solveVec(e, B[it%len(B)])
					if err != nil {
						t.Error(err)
						return
					}
					for i := range x {
						if x[i] != want[it%len(B)][i] {
							t.Errorf("graph coop mismatch at %d", i)
							return
						}
					}
				case 1:
					if _, err := solveUpperVec(e, B[it%len(B)]); err != nil {
						t.Error(err)
						return
					}
				default:
					X, err := solveBatch(e, B)
					if err != nil {
						t.Error(err)
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
}

// TestGraphCloseRacingSolves closes graph-scheduled engines while solves
// are in flight: complete or ErrClosed, never a deadlock.
func TestGraphCloseRacingSolves(t *testing.T) {
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

// TestEngineSteadyStateAllocs: once the pools and the epoch's packed
// layouts are warm, cooperative forward and backward solves and
// multi-panel calls allocate nothing per call — at one worker (the inline
// path) and on the pool.
func TestEngineSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	a := gen.Grid3D(6, 6, 6)
	p := planFor(t, a, order.STS3)
	B, _ := randomRHS(p, 7, 41) // panels of 4, 2 and 1
	X := make2d(len(B), p.S.L.N)
	x := make([]float64, p.S.L.N)
	ctx := t.Context()

	for _, workers := range []int{1, 4} {
		e := newEngine(t, p, workers)
		calls := []struct {
			name string
			call func() error
		}{
			{"SolveIntoCtx", func() error { return e.SolveIntoCtx(ctx, x, B[0]) }},
			{"SolveUpperIntoCtx", func() error { return e.SolveUpperIntoCtx(ctx, x, B[0]) }},
			{"SolveBlockIntoCtx/panels", func() error { return e.SolveBlockIntoCtx(ctx, X, B) }},
		}
		for i := 0; i < 3; i++ { // warm the pools and packed layouts
			for _, c := range calls {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, c := range calls {
			if n := testing.AllocsPerRun(50, func() {
				if err := c.call(); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("workers=%d: %s allocates %.1f/op, want 0", workers, c.name, n)
			}
		}
		e.Close()
	}
}
