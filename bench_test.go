package stsk

// One benchmark per table/figure of the paper's evaluation (§4), plus
// wall-clock goroutine benchmarks of the four solver schemes. The figure
// benchmarks run the internal/bench experiment drivers at a reduced suite
// scale so `go test -bench=.` terminates quickly; cmd/stsbench runs the
// same drivers at full scale. See DESIGN.md for the experiment index.

import (
	"context"
	"io"
	"runtime"
	"testing"
	"time"

	"stsk/internal/bench"
	"stsk/internal/dar"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

const benchScale = 4000

func newBenchRunner(b *testing.B) *bench.Runner {
	b.Helper()
	r := bench.New(benchScale, io.Discard)
	r.Repeats = 1
	return r
}

func runExperiment(b *testing.B, name string) {
	r := newBenchRunner(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Suite regenerates Table 1 (suite statistics).
func BenchmarkTable1Suite(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig6SpyPlots regenerates Figure 6 (colouring vs STS-3 structure).
func BenchmarkFig6SpyPlots(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7Parallelism regenerates Figure 7 (packs vs components/pack).
func BenchmarkFig7Parallelism(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8WorkShare regenerates Figure 8 (% work in 5 largest packs).
func BenchmarkFig8WorkShare(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9Speedup regenerates Figure 9 (parallel speedup vs CSR-LS@1).
func BenchmarkFig9Speedup(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkFig10RelColor regenerates Figure 10 (STS-3 vs CSR-COL).
func BenchmarkFig10RelColor(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11RelLS regenerates Figure 11 (CSR-3-LS vs CSR-LS).
func BenchmarkFig11RelLS(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12CoreSweepColor regenerates Figure 12 (colour pair vs cores).
func BenchmarkFig12CoreSweepColor(b *testing.B) { runExperiment(b, "fig12") }

// BenchmarkFig13CoreSweepLS regenerates Figure 13 (level-set pair vs cores).
func BenchmarkFig13CoreSweepLS(b *testing.B) { runExperiment(b, "fig13") }

// BenchmarkFig14LargestPack regenerates Figure 14 (per-unknown locality).
func BenchmarkFig14LargestPack(b *testing.B) { runExperiment(b, "fig14") }

// --- Wall-clock goroutine solves (secondary, unpinned signal) ---

func benchSolve(b *testing.B, method Method, workers int) {
	mat, err := Generate("trimesh", 60000)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(mat, method)
	if err != nil {
		b.Fatal(err)
	}
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = 1
	}
	rhs := plan.RHSFor(xTrue)
	solver := plan.NewSolver(WithWorkers(workers))
	defer solver.Close()
	x := make([]float64, plan.N())
	if err := solver.SolveInto(x, rhs); err != nil {
		b.Fatal(err)
	}
	if r := plan.Residual(x, rhs); r > 1e-9 {
		b.Fatalf("residual %g", r)
	}
	b.SetBytes(int64(mat.NNZ()) * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := solver.SolveInto(x, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveCSRLS(b *testing.B)  { benchSolve(b, CSRLS, 0) }
func BenchmarkSolveCSR3LS(b *testing.B) { benchSolve(b, CSR3LS, 0) }
func BenchmarkSolveCSRCOL(b *testing.B) { benchSolve(b, CSRCOL, 0) }
func BenchmarkSolveSTS3(b *testing.B)   { benchSolve(b, STS3, 0) }

func BenchmarkSolveSTS3Sequential(b *testing.B) { benchSolve(b, STS3, 1) }

// BenchmarkApplySymmetric times y = A′·x, the product every CG
// iteration makes, on the pcg-ic0 workload's plan (grid3d, n = 97,336,
// STS-3): the sequential CSR.MatVec reference over SymmetrizePattern(L′)
// against ApplySymmetric, which the caller and the idle solve helpers
// sweep in row chunks over 32-bit indices; and the first product of each
// new value epoch (AfterRefactor), which also gathers that epoch's A′
// values, on one core. Run it with -cpu 1,2 to see the second worker's
// share.
func BenchmarkApplySymmetric(b *testing.B) {
	mat, err := Generate("grid3d", 100000)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		b.Fatal(err)
	}
	ref := sparse.SymmetrizePattern(plan.structure().L)
	x := make([]float64, plan.N())
	for i := range x {
		x[i] = float64(i%7) - 3
	}
	y := make([]float64, plan.N())
	b.Run("MatVec", func(b *testing.B) {
		b.SetBytes(int64(ref.NNZ()) * 16)
		for i := 0; i < b.N; i++ {
			ref.MatVec(y, x)
		}
	})
	b.Run("ApplySymmetric", func(b *testing.B) {
		if err := plan.ApplySymmetric(y, x); err != nil { // assemble A′ outside the timing
			b.Fatal(err)
		}
		b.SetBytes(int64(ref.NNZ()) * 12)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := plan.ApplySymmetric(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("AfterRefactor", func(b *testing.B) {
		vals := [2][]float64{mat.Values(), mat.Values()}
		for k := range vals[1] {
			vals[1][k] *= 2
		}
		b.SetBytes(int64(ref.NNZ()) * 12)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := plan.Refactor(vals[i%2]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := plan.ApplySymmetric(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkValueUpdate times one numeric value update of a PCG caller on
// the pcg-ic0 workload's plan (grid3d, n = 97,336, STS-3), alternating
// the matrix's values ×4 and ×1 as that workload does, each update from
// a freshly collected heap: Refactor alone, NewIC0 alone (the factor
// over the task DAG, written straight into its packed layout), the first
// IC0Preconditioner.Apply of the new factor (which gathers L̂ᵀ), and the
// whole Update, all three in turn — what the workload's update_p50_ms
// times. Run it with -cpu 1,2 to see the second worker's share.
func BenchmarkValueUpdate(b *testing.B) {
	mat, err := Generate("grid3d", 100000)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		b.Fatal(err)
	}
	vals := [2][]float64{mat.Values(), mat.Values()}
	for k := range vals[0] {
		vals[0][k] *= 4
	}
	r := make([]float64, plan.N())
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, plan.N())
	ic, err := NewIC0(plan)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { ic.Close() }()
	// step runs one update; the timer runs only around the steps named
	// by timed (Refactor, NewIC0, Apply).
	step := func(b *testing.B, i int, timed [3]bool) {
		b.StopTimer()
		runtime.GC()
		run := func(k int, f func() error) {
			if timed[k] {
				b.StartTimer()
			}
			if err := f(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
		}
		run(0, func() error { return plan.Refactor(vals[i%2]) })
		run(1, func() error {
			ic.Close()
			ic, err = NewIC0(plan)
			return err
		})
		run(2, func() error { return ic.Apply(z, r) })
		b.StartTimer()
	}
	for _, bc := range []struct {
		name  string
		timed [3]bool
	}{
		{"Refactor", [3]bool{true, false, false}},
		{"IC0", [3]bool{false, true, false}},
		{"FirstApply", [3]bool{false, false, true}},
		{"Update", [3]bool{true, true, true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(b, i, bc.timed)
			}
		})
	}
}

// --- Multi-RHS engine comparison ---
//
// BenchmarkMultiRHSGrid3D drives 32 right-hand sides through one STS-3
// plan on a grid3d matrix three ways: the paper's barrier reference
// runner (goroutines spawned per solve, CSR kernel), the pooled Solver
// (the caller and the idle helpers sweeping the task DAG per RHS), and
// one block call (four 8-wide panels). b.ReportMetric publishes
// solves/sec, so the comparison reads straight off
// `go test -bench MultiRHS`.
func BenchmarkMultiRHSGrid3D(b *testing.B) {
	mat, err := Generate("grid3d", 10000)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		b.Fatal(err)
	}
	const nrhs = 32
	// At least 4 workers so the barrier runner really pays per-solve
	// goroutine spawn even on small CI boxes (Workers==1 short-circuits to
	// an inline sequential sweep and would hide the comparison).
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	B := make([][]float64, nrhs)
	xTrue := make([]float64, plan.N())
	for r := range B {
		for i := range xTrue {
			xTrue[i] = float64((i+r)%7) - 3
		}
		B[r] = plan.RHSFor(xTrue)
	}
	perRHS := func(b *testing.B, d time.Duration) {
		b.ReportMetric(float64(nrhs*b.N)/d.Seconds(), "solves/s")
	}
	b.Run("barrier", func(b *testing.B) {
		// The reference runner spawns its goroutines per solve.
		st := plan.structure()
		opts := solve.DefaultsFor(true, workers)
		x := make([]float64, plan.N())
		b.ReportAllocs()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, rhs := range B {
				if err := solve.Barrier(x, st, rhs, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		perRHS(b, time.Since(start))
	})
	ctx := context.Background()
	solver := plan.NewSolver(WithWorkers(workers))
	defer solver.Close()
	b.Run("pooled", func(b *testing.B) {
		x := make([]float64, plan.N())
		// One untimed call fills the pools and packs the layouts, so the
		// timed loop and its allocation columns show the steady state.
		if err := solver.SolveInto(x, B[0]); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			for _, rhs := range B {
				if err := solver.SolveInto(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
		}
		perRHS(b, time.Since(start))
	})
	// pooled-block is the panel acceptance variant: same solver, same
	// packed layout, but the 32 right-hand sides travel as four 8-wide
	// row-major panels, so the matrix (indices and values) is loaded four
	// times instead of 32 — the per-RHS throughput must be ≥ pooled.
	b.Run("pooled-block", func(b *testing.B) {
		X := make([][]float64, nrhs)
		for r := range X {
			X[r] = make([]float64, plan.N())
		}
		if err := solver.SolveBlockInto(ctx, X, B); err != nil { // warm, untimed
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if err := solver.SolveBlockInto(ctx, X, B); err != nil {
				b.Fatal(err)
			}
		}
		perRHS(b, time.Since(start))
	})
}

// BenchmarkWideDAGSchedules is the wide-DAG acceptance benchmark: a
// block-diagonal matrix of independent grid blocks, where every pack
// mixes super-rows from blocks that share no data. The barrier reference
// runner still synchronises all workers after every pack; the Solver's
// graph schedule lets each block's chain of tasks flow through the
// workers untouched by the others. Reported as solves/s like the MultiRHS
// benchmark.
func BenchmarkWideDAGSchedules(b *testing.B) {
	mat := blockDiagMatrix(8, gen.Grid2D(50, 50))
	plan, err := Build(mat, STS3)
	if err != nil {
		b.Fatal(err)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = float64(i%13) - 6
	}
	rhs := plan.RHSFor(xTrue)
	want, err := plan.SolveSequential(rhs)
	if err != nil {
		b.Fatal(err)
	}
	st := plan.structure()
	barrier := solve.BarrierOptions{Workers: workers, Schedule: solve.Guided, Chunk: 1}
	for _, lane := range []struct {
		name    string
		workers int // Solver pool size; 0 runs the barrier reference runner
	}{
		{"sequential", 1}, // one worker: the packed sweep as one task on the caller
		{"barrier", 0},
		{"graph", workers},
	} {
		solveInto := func(x, b []float64) error { return solve.Barrier(x, st, b, barrier) }
		if lane.workers > 0 {
			solver := plan.NewSolver(WithWorkers(lane.workers))
			defer solver.Close()
			solveInto = solver.SolveInto
		}
		b.Run(lane.name, func(b *testing.B) {
			x := make([]float64, plan.N())
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := solveInto(x, rhs); err != nil {
					b.Fatal(err)
				}
			}
			perSolve := float64(b.N) / time.Since(start).Seconds()
			b.ReportMetric(perSolve, "solves/s")
			for i := range x {
				if x[i] != want[i] {
					b.Fatalf("%s: result differs from Sequential at %d", lane.name, i)
				}
			}
		})
	}
}

// BenchmarkOrderingPipeline measures the pre-processing cost the paper
// amortises over repeated solves (§4.1).
func BenchmarkOrderingPipeline(b *testing.B) {
	mat, err := Generate("trimesh", 30000)
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range Methods() {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(mat, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSchedules compares the OpenMP-style loop schedules of the
// barrier reference runner on STS-3 — the §4.1 schedule-selection
// ablation — against the Solver's graph schedule.
func BenchmarkSchedules(b *testing.B) {
	mat, err := Generate("grid3d", 50000)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Build(mat, STS3)
	if err != nil {
		b.Fatal(err)
	}
	rhs := plan.RHSFor(make([]float64, plan.N()))
	st := plan.structure()
	for _, sc := range []struct {
		name string
		opts solve.BarrierOptions
	}{
		{"static", solve.BarrierOptions{Schedule: solve.Static}},
		{"dynamic32", solve.BarrierOptions{Schedule: solve.Dynamic, Chunk: 32}},
		{"guided1", solve.BarrierOptions{Schedule: solve.Guided, Chunk: 1}},
	} {
		b.Run(sc.name, func(b *testing.B) {
			x := make([]float64, plan.N())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := solve.Barrier(x, st, rhs, sc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	solver := plan.NewSolver()
	defer solver.Close()
	b.Run("graph", func(b *testing.B) {
		x := make([]float64, plan.N())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := solver.SolveInto(x, rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkInPackSchedulers compares the §3.3 In-Pack heuristics on a line
// DAR (the E-NP experiment).
func BenchmarkInPackSchedulers(b *testing.B) {
	b.Run("block", func(b *testing.B) {
		benchDarScheduler(b, func(in *dar.Instance) []int { return in.BlockSchedule() })
	})
	b.Run("dynamic", func(b *testing.B) {
		benchDarScheduler(b, func(in *dar.Instance) []int { return in.DynamicSchedule(nil) })
	})
}

func benchDarScheduler(b *testing.B, f func(*dar.Instance) []int) {
	in := dar.LineInstance(4096, 16, 5, 1, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign := f(in)
		if _, err := in.Cost(assign); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation: in-pack DAR reordering on/off (the §3.4 design choice) ---

func BenchmarkAblationInPackRCM(b *testing.B) {
	mat, err := Generate("trimesh", 40000)
	if err != nil {
		b.Fatal(err)
	}
	for _, skip := range []bool{false, true} {
		name := "with-dar-rcm"
		if skip {
			name = "without-dar-rcm"
		}
		b.Run(name, func(b *testing.B) {
			p, err := order.Build(mat.a, order.Options{Method: order.STS3, SkipInPackRCM: skip})
			if err != nil {
				b.Fatal(err)
			}
			rhs := make([]float64, p.S.L.N)
			x := make([]float64, p.S.L.N)
			opts := solve.DefaultsFor(true, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := solve.Barrier(x, p.S, rhs, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
