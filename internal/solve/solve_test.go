package solve

import (
	"math/rand"
	"testing"

	"stsk/internal/csrk"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/sparse"
)

// planFor builds a plan for the given matrix and method.
func planFor(t testing.TB, a *sparse.CSR, m order.Method) *order.Plan {
	t.Helper()
	p, err := order.Build(a, order.Options{Method: m, RowsPerSuper: 8})
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return p
}

func TestSequentialMatchesReference(t *testing.T) {
	a := gen.Grid2D(13, 11)
	p := planFor(t, a, order.STS3)
	xTrue := make([]float64, a.N)
	for i := range xTrue {
		xTrue[i] = float64(i%5) + 0.5
	}
	b := sparse.RHSForSolution(p.S.L, xTrue)
	x, err := Sequential(p.S, b)
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-10 {
		t.Fatalf("sequential error %g", d)
	}
	if _, err := Sequential(p.S, b[:3]); err == nil {
		t.Fatal("short rhs accepted")
	}
}

// barrierSolve runs the Barrier reference runner into a fresh vector.
func barrierSolve(s *csrk.Structure, b []float64, opts BarrierOptions) ([]float64, error) {
	x := make([]float64, s.L.N)
	if err := Barrier(x, s, b, opts); err != nil {
		return nil, err
	}
	return x, nil
}

// TestParallelAllMethodsSchedulesWorkers: the Barrier reference runner is
// correct and bitwise equal to Sequential for every method, schedule and
// worker count.
func TestParallelAllMethodsSchedulesWorkers(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"trimesh": gen.TriMesh(18, 18, 3),
		"grid3d":  gen.Grid3D(6, 6, 6),
		"roadnet": gen.RoadNet(6, 6, 3, 5, 1),
	}
	for name, a := range mats {
		for _, m := range order.Methods() {
			p := planFor(t, a, m)
			xTrue := make([]float64, a.N)
			rng := rand.New(rand.NewSource(9))
			for i := range xTrue {
				xTrue[i] = rng.NormFloat64()
			}
			b := sparse.RHSForSolution(p.S.L, xTrue)
			want, err := Sequential(p.S, b)
			if err != nil {
				t.Fatal(err)
			}
			for _, sched := range []Schedule{Static, Dynamic, Guided} {
				for _, workers := range []int{1, 2, 3, 8} {
					x, err := barrierSolve(p.S, b, BarrierOptions{Workers: workers, Schedule: sched, Chunk: 2})
					if err != nil {
						t.Fatalf("%s/%v/%v/w%d: %v", name, m, sched, workers, err)
					}
					if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-9 {
						t.Fatalf("%s/%v/%v/w%d: error %g", name, m, sched, workers, d)
					}
					assertBitwise(t, name+"/"+m.String()+"/"+sched.String(), x, want)
				}
			}
		}
	}
}

func TestParallelIntoReusesBuffer(t *testing.T) {
	a := gen.Grid2D(10, 10)
	p := planFor(t, a, order.CSRCOL)
	xTrue := sparse.Ones(a.N)
	b := sparse.RHSForSolution(p.S.L, xTrue)
	x := make([]float64, a.N)
	for rep := 0; rep < 3; rep++ {
		if err := Barrier(x, p.S, b, BarrierOptions{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-10 {
			t.Fatalf("rep %d: error %g", rep, d)
		}
	}
	if err := Barrier(x[:2], p.S, b, BarrierOptions{}); err == nil {
		t.Fatal("short x accepted")
	}
	if err := Barrier(x, p.S, b[:2], BarrierOptions{}); err == nil {
		t.Fatal("short b accepted")
	}
}

func TestParallelManyMoreWorkersThanWork(t *testing.T) {
	// More workers than super-rows in any pack: schedules must not deadlock
	// or double-solve.
	a := gen.Grid2D(5, 5)
	p := planFor(t, a, order.CSRLS)
	xTrue := sparse.Ones(a.N)
	b := sparse.RHSForSolution(p.S.L, xTrue)
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		x, err := barrierSolve(p.S, b, BarrierOptions{Workers: 16, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-10 {
			t.Fatalf("%v: error %g", sched, d)
		}
	}
}

func TestParallelRandomizedStress(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	specs := gen.PaperSuite(400)
	for trial := 0; trial < 6; trial++ {
		spec := specs[rng.Intn(len(specs))]
		a := spec.Build(400)
		m := order.Methods()[rng.Intn(4)]
		p := planFor(t, a, m)
		xTrue := make([]float64, a.N)
		for i := range xTrue {
			xTrue[i] = rng.Float64()*4 - 2
		}
		b := sparse.RHSForSolution(p.S.L, xTrue)
		opts := BarrierOptions{
			Workers:  1 + rng.Intn(8),
			Schedule: Schedule(rng.Intn(3)),
			Chunk:    1 + rng.Intn(5),
		}
		x, err := barrierSolve(p.S, b, opts)
		if err != nil {
			t.Fatalf("%s/%v: %v", spec.ID, m, err)
		}
		if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-8 {
			t.Fatalf("%s/%v %+v: error %g", spec.ID, m, opts, d)
		}
	}
}

func TestFlatStructureSolve(t *testing.T) {
	// A Flat structure has one pack: everything sequential in one chunk,
	// on the reference runner and on a multi-worker engine alike.
	a := gen.Grid2D(8, 8)
	l := a.Lower()
	s := csrk.Flat(l)
	xTrue := sparse.Ones(a.N)
	b := sparse.RHSForSolution(l, xTrue)
	x, err := barrierSolve(s, b, BarrierOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if d := sparse.MaxAbsDiff(x, xTrue); d > 1e-10 {
		t.Fatalf("flat solve error %g", d)
	}
	e := newEngineVals(t, NewValues(s), 4)
	defer e.Close()
	y, err := solveVec(e, b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, "flat engine", y, x)
}

func TestDefaultsFor(t *testing.T) {
	o := DefaultsFor(true, 8)
	if o.Schedule != Guided || o.Chunk != 1 || o.Workers != 8 {
		t.Fatalf("k-level defaults wrong: %+v", o)
	}
	o = DefaultsFor(false, 4)
	if o.Schedule != Dynamic || o.Chunk != 32 {
		t.Fatalf("row-level defaults wrong: %+v", o)
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("schedule names wrong")
	}
	if Schedule(9).String() == "" {
		t.Fatal("unknown schedule should format")
	}
}
