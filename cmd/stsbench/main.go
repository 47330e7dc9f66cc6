// Command stsbench regenerates the tables and figures of the STS-k paper's
// evaluation (§4) on the deterministic NUMA cache simulator, and records
// the wall-clock solve performance trajectory.
//
// Usage:
//
//	stsbench -experiment all            # the full evaluation
//	stsbench -experiment fig9 -scale 20000
//	stsbench -experiment solvebench     # wall-clock method × schedule matrix plus
//	                                    # the multi-RHS blocksolve cells (32 RHS as
//	                                    # calls of 1/2/4/8 columns, per-RHS solves/s);
//	                                    # machine-readable copy in BENCH_stsk.json
//	stsbench -list
//
// Experiments: table1, fig6, fig7, fig8, fig9, fig10, fig11, fig12,
// fig13, fig14 (see DESIGN.md for the per-experiment index), plus
// solvebench. The serving stack is measured by the stskbench module
// (stskbench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stsk/internal/bench"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run (or 'all')")
		scale      = flag.Int("scale", 20000, "target rows per suite matrix")
		repeats    = flag.Int("repeats", 2, "cache-simulator warm repeats")
		benchout   = flag.String("benchout", "BENCH_stsk.json", "output path for the solvebench JSON report")
		list       = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Println(e)
		}
		fmt.Println("solvebench")
		return
	}
	r := bench.New(*scale, os.Stdout)
	r.Repeats = *repeats
	start := time.Now()
	var err error
	if *experiment == "solvebench" {
		err = runSolveBench(r, *benchout)
	} else {
		err = r.Run(*experiment)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "stsbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "stsbench: %s done in %v\n", *experiment, time.Since(start).Round(time.Millisecond))
}

// runSolveBench writes the human-readable table to stdout and the
// machine-readable report to path.
func runSolveBench(r *bench.Runner, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.WriteSolveBenchJSON(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "stsbench: wrote %s\n", path)
	return f.Close()
}
