package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"stsk/internal/csrk"
	"stsk/internal/gen"
	"stsk/internal/order"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

// SolveBenchResult is one measured (matrix, method, schedule) cell of the
// wall-clock solve benchmark — the machine-readable perf trajectory
// recorded as BENCH_stsk.json across PRs.
type SolveBenchResult struct {
	Matrix       string  `json:"matrix"`
	N            int     `json:"n"`
	NNZ          int     `json:"nnz"`
	Method       string  `json:"method"`
	Schedule     string  `json:"schedule"`
	Workers      int     `json:"workers"`
	Width        int     `json:"width,omitempty"` // blocksolve cells: columns per call, one panel
	NRHS         int     `json:"nrhs,omitempty"`  // blocksolve cells: right-hand sides per op
	NsPerOp      float64 `json:"ns_per_op"`
	SolvesPerSec float64 `json:"solves_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_op"`
	Tasks        int     `json:"tasks,omitempty"`       // graph schedule: DAG size
	Edges        int     `json:"edges,omitempty"`       // graph schedule: sparsified deps
	Parallelism  float64 `json:"parallelism,omitempty"` // graph schedule: tasks / critical path
}

// SolveBenchReport is the BENCH_stsk.json document.
type SolveBenchReport struct {
	GOOS    string             `json:"goos"`
	GOARCH  string             `json:"goarch"`
	CPUs    int                `json:"cpus"`
	Scale   int                `json:"scale"`
	Results []SolveBenchResult `json:"results"`
}

// benchMinDuration is how long each wall-clock measurement loop samples
// before reporting a mean; the smoke test shrinks it.
var benchMinDuration = 150 * time.Millisecond

// solveBenchMatrix builds one wall-clock benchmark matrix near n rows.
func solveBenchMatrix(class string, n int) (*sparse.CSR, error) {
	switch class {
	case "grid3d":
		s := 2
		for (s+1)*(s+1)*(s+1) <= n {
			s++
		}
		return gen.Grid3D(s, s, s), nil
	case "trimesh":
		s := 2
		for (s+1)*(s+1) <= n {
			s++
		}
		return gen.TriMesh(s, s, 7), nil
	}
	return nil, fmt.Errorf("bench: unknown solve-bench matrix class %q", class)
}

// SolveBench measures wall-clock forward solves for every method on the
// standard benchmark matrices in three lanes — sequential (a one-worker
// engine), the paper's barrier pairing (the solve.Barrier reference
// runner: fresh goroutines and the CSR kernel per solve), and the
// engine's cooperative sweep over the task DAG ("graph") — plus the
// multi-RHS blocksolve cells ("block"): the same 32 right-hand sides
// solved as 32/w calls of w columns for w = 1, 2, 4 and 8, each call one
// w-wide panel swept cooperatively, reported as per-RHS throughput and
// steady-state allocations. A human-readable table goes to r.Out; the
// returned report is what stsbench serialises to BENCH_stsk.json.
func (r *Runner) SolveBench() (*SolveBenchReport, error) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	report := &SolveBenchReport{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Scale:  r.Scale,
	}
	fmt.Fprintf(r.Out, "Solve benchmark (wall-clock, %d workers)\n", workers)
	fmt.Fprintf(r.Out, "%-8s %-9s %-10s %12s %14s %10s\n", "matrix", "method", "schedule", "ns/op", "solves/s", "allocs/op")
	for _, class := range []string{"grid3d", "trimesh"} {
		mat, err := solveBenchMatrix(class, r.Scale)
		if err != nil {
			return nil, err
		}
		for _, m := range methodOrder {
			p, err := order.Build(mat, order.Options{Method: m})
			if err != nil {
				return nil, fmt.Errorf("bench: solvebench plan %s/%v: %w", class, m, err)
			}
			dag := order.BuildTaskDAG(p.S, order.TaskDAGOptions{})
			rhs := sparse.RHSForSolution(p.S.L, make([]float64, p.S.L.N))
			for _, lane := range []string{"sequential", "barrier", "graph"} {
				res, err := measureLane(p, dag, rhs, lane, workers)
				if err != nil {
					return nil, err
				}
				res.Matrix, res.N, res.NNZ = class, mat.N, mat.NNZ()
				res.Method, res.Schedule = m.String(), lane
				if lane == "graph" {
					res.Tasks = dag.NumTasks()
					res.Edges = dag.NumEdges()
					res.Parallelism = dag.Parallelism()
				}
				report.Results = append(report.Results, res)
				fmt.Fprintf(r.Out, "%-8s %-9s %-10s %12.0f %14.0f %10.2f\n",
					class, m, lane, res.NsPerOp, res.SolvesPerSec, res.AllocsPerOp)
			}
			for _, width := range []int{1, 2, 4, 8} {
				res, err := measureBlockSolve(p.S, dag, workers, width)
				if err != nil {
					return nil, err
				}
				res.Matrix, res.N, res.NNZ = class, mat.N, mat.NNZ()
				res.Method = m.String()
				report.Results = append(report.Results, res)
				label := fmt.Sprintf("%s-w%d", res.Schedule, width)
				fmt.Fprintf(r.Out, "%-8s %-9s %-10s %12.0f %14.0f %10.2f\n",
					class, m, label, res.NsPerOp, res.SolvesPerSec, res.AllocsPerOp)
			}
		}
	}
	return report, nil
}

// measureBlockSolve times 32 right-hand sides solved as 32/width block
// calls of width columns on a persistent engine: each call is one
// width-wide panel swept cooperatively over the task DAG, so width 1 is
// the one-vector baseline the panels amortise against. Reported ns/op
// and solves/s are per right-hand side.
func measureBlockSolve(st *csrk.Structure, dag *csrk.TaskDAG, workers, width int) (SolveBenchResult, error) {
	const nrhs = 32
	e, err := solve.NewEngine(solve.NewValues(st), solve.Options{Workers: workers, Graph: dag})
	if err != nil {
		return SolveBenchResult{}, err
	}
	defer e.Close()
	n := st.L.N
	B := make([][]float64, nrhs)
	X := make([][]float64, nrhs)
	for i := range B {
		x := make([]float64, n)
		for j := range x {
			x[j] = float64((j+3*i)%11) - 5
		}
		B[i] = sparse.RHSForSolution(st.L, x)
		X[i] = make([]float64, n)
	}
	//stsk:allow-background (benchmark loop: there is no caller request to inherit from)
	ctx := context.Background()
	run := func() error {
		for lo := 0; lo < nrhs; lo += width {
			if err := e.SolveBlockIntoCtx(ctx, X[lo:lo+width], B[lo:lo+width]); err != nil {
				return err
			}
		}
		return nil
	}
	for i := 0; i < 3; i++ { // warm pools and panel scratch
		if err := run(); err != nil {
			return SolveBenchResult{}, err
		}
	}
	const maxOps = 5000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for ops == 0 || (time.Since(start) < benchMinDuration && ops < maxOps) {
		if err := run(); err != nil {
			return SolveBenchResult{}, err
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	// Everything per right-hand side (including allocations), so the
	// blocksolve cells compare directly against the scalar schedule rows.
	perRHS := float64(elapsed.Nanoseconds()) / float64(ops*nrhs)
	return SolveBenchResult{
		Schedule:     "block",
		Workers:      e.Workers(),
		Width:        width,
		NRHS:         nrhs,
		NsPerOp:      perRHS,
		SolvesPerSec: 1e9 / perRHS,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(ops*nrhs),
	}, nil
}

// measureLane times one single-vector solve lane: "sequential" and
// "graph" on a persistent engine of one and of workers goroutines, and
// "barrier" on the solve.Barrier reference runner with the paper's
// schedule pairing for the plan's method.
func measureLane(p *order.Plan, dag *csrk.TaskDAG, rhs []float64, lane string, workers int) (SolveBenchResult, error) {
	if lane == "barrier" {
		opts := solve.DefaultsFor(p.Method.UsesSuperRows(), workers)
		return measureSolve(p.S.L.N, workers, rhs, func(x, b []float64) error {
			return solve.Barrier(x, p.S, b, opts)
		})
	}
	opts := solve.Options{Workers: 1}
	if lane == "graph" {
		opts = solve.Options{Workers: workers, Graph: dag}
	}
	e, err := solve.NewEngine(solve.NewValues(p.S), opts)
	if err != nil {
		return SolveBenchResult{}, err
	}
	defer e.Close()
	//stsk:allow-background (benchmark loop: there is no caller request to inherit from)
	ctx := context.Background()
	return measureSolve(p.S.L.N, e.Workers(), rhs, func(x, b []float64) error {
		return e.SolveIntoCtx(ctx, x, b)
	})
}

// measureSolve times repeated single-vector solves until enough samples
// accumulate, and reads steady-state allocations from the runtime's
// malloc counter (warm-up solves are excluded, so a pooled engine reports
// ~0).
func measureSolve(n, workers int, rhs []float64, solveInto func(x, b []float64) error) (SolveBenchResult, error) {
	x := make([]float64, n)
	for i := 0; i < 3; i++ { // warm pools and packed layouts
		if err := solveInto(x, rhs); err != nil {
			return SolveBenchResult{}, err
		}
	}
	const maxOps = 50000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for ops == 0 || (time.Since(start) < benchMinDuration && ops < maxOps) {
		if err := solveInto(x, rhs); err != nil {
			return SolveBenchResult{}, err
		}
		ops++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds()) / float64(ops)
	return SolveBenchResult{
		Workers:      workers,
		NsPerOp:      ns,
		SolvesPerSec: 1e9 / ns,
		AllocsPerOp:  float64(after.Mallocs-before.Mallocs) / float64(ops),
	}, nil
}

// WriteSolveBenchJSON runs SolveBench and serialises the report.
func (r *Runner) WriteSolveBenchJSON(w io.Writer) error {
	report, err := r.SolveBench()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
