// Command stsgen writes synthetic suite matrices as Matrix Market files,
// so the reproduction's workloads can be inspected, exchanged with other
// tools, or replaced by real UF matrices behind the same file interface.
//
// Usage:
//
//	stsgen -suite D5 -n 100000 -o d5.mtx
//	stsgen -class roadnet -n 50000 -o road.mtx
//	stsgen -all -n 20000 -dir ./matrices
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"stsk/internal/gen"
	"stsk/internal/sparse"
)

func main() {
	var (
		suite = flag.String("suite", "", "paper suite id (G1, D1, S1, D2..D10)")
		class = flag.String("class", "", "generator class")
		all   = flag.Bool("all", false, "write the whole 12-matrix suite")
		n     = flag.Int("n", 20000, "target rows")
		out   = flag.String("o", "", "output file (default stdout)")
		dir   = flag.String("dir", ".", "output directory for -all")
	)
	flag.Parse()

	if *all {
		for _, spec := range gen.PaperSuite(*n) {
			m := spec.Build(*n)
			path := filepath.Join(*dir, fmt.Sprintf("%s_%s.mtx", spec.ID, spec.Name))
			if err := writeTo(path, m); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "stsgen: %s (n=%d nnz=%d) -> %s\n", spec.ID, m.N, m.NNZ(), path)
		}
		return
	}

	var m *sparse.CSR
	switch {
	case *suite != "":
		spec := gen.BySuiteID(gen.PaperSuite(*n), *suite)
		if spec == nil {
			fatal(fmt.Errorf("unknown suite id %q", *suite))
		}
		m = spec.Build(*n)
	case *class != "":
		m = gen.ByClass(*class, *n)
		if m == nil {
			fatal(fmt.Errorf("unknown class %q", *class))
		}
	default:
		fatal(fmt.Errorf("one of -suite, -class, or -all is required"))
	}
	if *out == "" {
		if err := sparse.WriteMatrixMarket(os.Stdout, m); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeTo(*out, m); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "stsgen: n=%d nnz=%d -> %s\n", m.N, m.NNZ(), *out)
}

func writeTo(path string, m *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return sparse.WriteMatrixMarket(f, m)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "stsgen:", err)
	os.Exit(1)
}
