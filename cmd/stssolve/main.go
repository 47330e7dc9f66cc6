// Command stssolve performs an end-to-end sparse triangular solution:
// it loads or generates a matrix, builds the requested STS-k ordering,
// solves L′x = b for a manufactured right-hand side, and reports the
// residual, wall-clock timing over repeats, and the modeled NUMA cycles.
//
// With -rhs N it instead streams N right-hand sides through the same plan
// and compares three solve paths on one persistent Solver: pooled (one
// cooperative solve per RHS), streamed (the SolveSeq iterator, results in
// input order), and blocked (panel kernels sweeping the matrix once per
// RHS panel, checked bitwise against the pooled solutions).
//
// -timeout bounds the whole run with a context deadline: an expired
// deadline cancels the in-flight solve loop, block call or stream, which
// reports context.DeadlineExceeded and exits — the cancellation path a
// service embedding this library would take.
//
// -dump-rhs and -dump-solution write the manufactured b and computed x
// (plan order, %.17g — exact float64 round-trip) for external
// verification; the serve e2e smoke compares stsserve responses against
// them bitwise. -scale-values rescales the matrix's values before the
// build, -dump-values writes the value array itself, and -load-rhs
// replays a previously dumped b instead of manufacturing one; together
// they give refactorization tooling (PUT /v1/plans/{name}/values) an
// independent oracle: a power-of-two scale is binary-exact, so solving
// the scaled system against the original b yields exactly the solution
// a value update must make the server produce.
//
// Usage:
//
//	stssolve -class trimesh -n 100000 -method sts3 -workers 8
//	stssolve -file matrix.mtx -method csr-col -repeats 20
//	stssolve -class grid3d -n 100000 -rhs 256 -timeout 30s
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"stsk"
)

func main() {
	var (
		class    = flag.String("class", "trimesh", "synthetic matrix class")
		file     = flag.String("file", "", "Matrix Market file (overrides -class)")
		n        = flag.Int("n", 50000, "target rows for generated matrices")
		method   = flag.String("method", "sts3", "csr-ls | csr-3-ls | csr-col | sts3")
		workers  = flag.Int("workers", 0, "the most goroutines one call is swept by (0 = GOMAXPROCS)")
		repeats  = flag.Int("repeats", 10, "timed solve repetitions (averaged, as in §4.1)")
		rhs      = flag.Int("rhs", 0, "stream this many right-hand sides through the solve engines instead of the single-RHS run")
		timeout  = flag.Duration("timeout", 0, "overall deadline for the solve phase (0 = none)")
		machine  = flag.String("machine", "intel", "topology for modeled cycles (intel, amd, uma)")
		cores    = flag.Int("cores", 16, "modeled cores")
		dumpRHS  = flag.String("dump-rhs", "", "write the manufactured right-hand side b (plan order, %.17g per line) to this file")
		loadRHS  = flag.String("load-rhs", "", "read the right-hand side b from this file (one float per line, plan order) instead of manufacturing one")
		dumpSol  = flag.String("dump-solution", "", "write the computed solution x (plan order, %.17g per line) to this file")
		dumpVal  = flag.String("dump-values", "", "write the matrix's value array (CSR order, %.17g per line) to this file — the array Plan.Refactor and PUT /v1/plans/{name}/values accept")
		scaleVal = flag.Float64("scale-values", 1, "rescale every matrix value by this factor before building (powers of two are binary-exact) — an independent oracle for numeric refactorization")
	)
	flag.Parse()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	m, err := stsk.ParseMethod(*method)
	if err != nil {
		fatal(err)
	}
	var mat *stsk.Matrix
	if *file != "" {
		if mat, err = stsk.ReadMatrixMarketFile(*file); err != nil {
			fatal(err)
		}
	} else {
		if mat, err = stsk.Generate(*class, *n); err != nil {
			fatal(err)
		}
	}
	if *scaleVal != 1 {
		vals := mat.Values()
		for i := range vals {
			vals[i] *= *scaleVal
		}
		if err := mat.SetValues(vals); err != nil {
			fatal(err)
		}
	}
	if *dumpVal != "" {
		if err := dumpVector(*dumpVal, mat.Values()); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("matrix: n=%d nnz=%d\n", mat.N(), mat.NNZ())

	buildStart := time.Now()
	plan, err := stsk.Build(mat, m)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("plan: method=%v packs=%d (built in %v; amortised over repeats, §4.1)\n",
		plan.Method(), plan.NumPacks(), time.Since(buildStart).Round(time.Microsecond))

	if *rhs > 0 {
		runMultiRHS(ctx, plan, *rhs, *workers)
		return
	}

	var b []float64
	if *loadRHS != "" {
		if b, err = loadVector(*loadRHS); err != nil {
			fatal(err)
		}
		if len(b) != plan.N() {
			fatal(fmt.Errorf("-load-rhs %s: %d values, want %d", *loadRHS, len(b), plan.N()))
		}
	} else {
		xTrue := make([]float64, plan.N())
		for i := range xTrue {
			xTrue[i] = 1
		}
		b = plan.RHSFor(xTrue)
	}

	solver := plan.NewSolver(stsk.WithWorkers(*workers))
	defer solver.Close()
	// Warm-up + correctness.
	x := make([]float64, plan.N())
	if err := solver.SolveIntoCtx(ctx, x, b); err != nil {
		fatal(err)
	}
	fmt.Printf("residual: %.3g\n", plan.Residual(x, b))

	start := time.Now()
	for i := 0; i < *repeats; i++ {
		if err = solver.SolveIntoCtx(ctx, x, b); err != nil {
			fatal(err)
		}
	}
	wall := time.Since(start) / time.Duration(*repeats)
	fmt.Printf("wall-clock: %v per solve (mean of %d; unpinned goroutines — noisy)\n", wall, *repeats)

	// Full-precision dumps let external tooling (the serve e2e smoke)
	// replay exactly this system and compare solutions bitwise.
	if *dumpRHS != "" {
		if err := dumpVector(*dumpRHS, b); err != nil {
			fatal(err)
		}
	}
	if *dumpSol != "" {
		if err := dumpVector(*dumpSol, x); err != nil {
			fatal(err)
		}
	}

	sim, err := plan.Simulate(*machine, *cores)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("modeled: %d cycles on %s@%d cores (sync %d, hit rate %.1f%%)\n",
		sim.Cycles, sim.Machine, sim.Cores, sim.SyncCycles, sim.HitRate*100)
}

// runMultiRHS streams n manufactured right-hand sides through one
// persistent Solver three ways and reports throughput: pooled (one
// cooperative solve per RHS over the task DAG), streamed (the SolveSeq
// iterator, results in input order), and blocked (panel kernels, one
// matrix sweep per RHS panel). The blocked solutions must equal the
// pooled ones bit for bit. All paths run under ctx, so a -timeout
// deadline cancels them mid-run.
func runMultiRHS(ctx context.Context, plan *stsk.Plan, n, workers int) {
	w := workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	B := make([][]float64, n)
	xTrue := make([]float64, plan.N())
	for r := range B {
		for i := range xTrue {
			xTrue[i] = math.Sin(float64(i + r))
		}
		B[r] = plan.RHSFor(xTrue)
	}
	fmt.Printf("streaming %d right-hand sides, %d workers\n", n, w)

	solver := plan.NewSolver(stsk.WithWorkers(w))
	defer solver.Close()

	// Pooled: one cooperative solve per RHS, the Solver's run state reused.
	X := make([][]float64, n)
	for r := range X {
		X[r] = make([]float64, plan.N())
	}
	start := time.Now()
	for r, b := range B {
		if err := solver.SolveIntoCtx(ctx, X[r], b); err != nil {
			fatal(err)
		}
	}
	pooled := time.Since(start)

	// Streamed: the SolveSeq iterator — each vector solved and yielded
	// before the next is drawn, results in input order.
	start = time.Now()
	for _, res := range solver.SolveSeq(ctx, slices.Values(B)) {
		if res.Err != nil {
			fatal(res.Err)
		}
	}
	streamed := time.Since(start)

	// Blocked: the panel kernels — RHSs grouped into row-major panels and
	// the matrix swept once per panel instead of once per vector. One
	// untimed pass first: the pooled n×8 panel scratch is faulted in on
	// first touch, which would otherwise dominate a single cold pass at
	// large n.
	if _, err := solver.SolveBlock(ctx, B); err != nil {
		fatal(err)
	}
	start = time.Now()
	P, err := solver.SolveBlock(ctx, B)
	if err != nil {
		fatal(err)
	}
	blocked := time.Since(start)

	worst := 0.0
	for r := range B {
		if rr := plan.Residual(X[r], B[r]); rr > worst {
			worst = rr
		}
		for i := range P[r] {
			if P[r][i] != X[r][i] {
				fatal(fmt.Errorf("blocked solve differs from pooled at rhs %d index %d", r, i))
			}
		}
	}
	fmt.Printf("worst pooled residual: %.3g (blocked bitwise equal)\n", worst)
	report := func(name string, d time.Duration) {
		fmt.Printf("%-9s %10.1f solves/s  (%v total, %.2fx vs pooled)\n",
			name, float64(n)/d.Seconds(), d.Round(time.Millisecond), pooled.Seconds()/d.Seconds())
	}
	report("pooled", pooled)
	report("streamed", streamed)
	report("blocked", blocked)
}

// loadVector reads one float per line, the format dumpVector writes.
func loadVector(path string) ([]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var v []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		x, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, len(v)+1, err)
		}
		v = append(v, x)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return v, nil
}

// dumpVector writes one float per line with enough digits (%.17g) that
// parsing the text reproduces the exact float64 bits.
func dumpVector(path string, v []float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, x := range v {
		fmt.Fprintf(w, "%.17g\n", x)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stssolve:", err)
	os.Exit(1)
}
