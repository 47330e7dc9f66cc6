package krylov

import (
	"context"
	"testing"

	"stsk"
)

// TestIC0IterationCountsPinned pins IC(0)-PCG iteration counts per
// ordering. The ordering changes how good the incomplete factor is, so
// it moves time to solution through the iteration count, not only
// through the sweep time; pinning the counts makes an ordering change
// that costs convergence fail here instead of hiding in timing noise.
// The counts are deterministic: every sweep is bitwise equal to the
// sequential solve at any worker count, and CG's reductions are
// sequential. Builds that contract a*b+c into FMA (exactIterCounts is
// false there) may legitimately land elsewhere, so they only check that
// the 1- and 2-worker counts agree.
func TestIC0IterationCountsPinned(t *testing.T) {
	methods := []stsk.Method{stsk.CSRLS, stsk.CSR3LS, stsk.CSRCOL, stsk.STS3}
	want := map[string][]int{
		"grid3d":  {13, 16, 18, 18},
		"trimesh": {16, 14, 16, 16},
	}
	for _, class := range []string{"grid3d", "trimesh"} {
		mat, err := stsk.Generate(class, 8000)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range methods {
			plan, err := stsk.Build(mat, m)
			if err != nil {
				t.Fatal(err)
			}
			x := make([]float64, plan.N())
			for i := range x {
				x[i] = float64((7*i)%11-5) / 5
			}
			b := make([]float64, plan.N())
			plan.ApplySymmetric(b, x)
			var iters [2]int
			for w := range iters {
				ic0, err := stsk.NewIC0(plan, stsk.WithWorkers(w+1))
				if err != nil {
					t.Fatal(err)
				}
				_, st, err := CG(context.Background(), plan, b,
					WithPreconditioner(ic0), WithTolerance(1e-10))
				ic0.Close()
				if err != nil {
					t.Fatalf("%s/%v at %d workers: %v", class, m, w+1, err)
				}
				iters[w] = st.Iterations
			}
			if iters[0] != iters[1] {
				t.Errorf("%s/%v: %d iterations at 1 worker, %d at 2", class, m, iters[0], iters[1])
			}
			if exactIterCounts && iters[0] != want[class][mi] {
				t.Errorf("%s/%v: %d iterations, want %d", class, m, iters[0], want[class][mi])
			}
		}
	}
}
