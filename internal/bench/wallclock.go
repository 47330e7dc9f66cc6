package bench

import (
	"fmt"
	"runtime"
	"time"

	"stsk/internal/order"
	"stsk/internal/solve"
	"stsk/internal/sparse"
)

// Wallclock times the paper's goroutine solver — the solve.Barrier
// reference runner, fresh goroutines per solve — over the suite: the
// secondary, unpinned signal (DESIGN.md §2). Times are the mean of
// `repeats` solves after one warm-up, mirroring the paper's average of 10
// repetitions with pre-processing excluded (§4.1).
func (r *Runner) Wallclock(repeats int) error {
	if repeats < 1 {
		repeats = 10
	}
	workers := runtime.GOMAXPROCS(0)
	fmt.Fprintf(r.Out, "wallclock: goroutine solver, %d workers, mean of %d solves (unpinned — noisy)\n",
		workers, repeats)
	fmt.Fprintf(r.Out, "%-4s", "mat")
	for _, m := range methodOrder {
		fmt.Fprintf(r.Out, " %12v", m)
	}
	fmt.Fprintln(r.Out, "   (µs per solve)")
	mc := r.Machines[0]
	for _, id := range r.sortedIDs() {
		fmt.Fprintf(r.Out, "%-4s", id)
		for _, m := range methodOrder {
			p, err := r.Plan(id, m, mc)
			if err != nil {
				return err
			}
			d, err := timeSolve(p, workers, repeats)
			if err != nil {
				return err
			}
			fmt.Fprintf(r.Out, " %12.1f", float64(d.Nanoseconds())/1e3)
		}
		fmt.Fprintln(r.Out)
	}
	return nil
}

func timeSolve(p *order.Plan, workers, repeats int) (time.Duration, error) {
	opts := solve.DefaultsFor(p.Method.UsesSuperRows(), workers)
	b := make([]float64, p.S.L.N)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, p.S.L.N)
	// Warm-up and correctness gate.
	if err := solve.Barrier(x, p.S, b, opts); err != nil {
		return 0, err
	}
	if res := sparse.Residual(p.S.L, x, b); res > 1e-6 {
		return 0, fmt.Errorf("bench: wallclock solve residual %g", res)
	}
	start := time.Now()
	for i := 0; i < repeats; i++ {
		if err := solve.Barrier(x, p.S, b, opts); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(repeats), nil
}
