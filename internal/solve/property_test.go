package solve

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stsk/internal/order"
	"stsk/internal/sparse"
)

// randomSPDSystem builds a random connected SPD-by-dominance matrix.
func randomSPDSystem(rng *rand.Rand, maxN int) *sparse.CSR {
	n := 2 + rng.Intn(maxN)
	coo := sparse.NewCOO(n, 6*n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1)
	}
	for v := 1; v < n; v++ {
		coo.AddSym(v, rng.Intn(v), 1)
	}
	for e := 0; e < rng.Intn(3*n); e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			coo.AddSym(i, j, 1)
		}
	}
	m := coo.ToCSR()
	if err := sparse.AssignSPDValues(m); err != nil {
		panic(err)
	}
	return m
}

// TestParallelEqualsSequentialProperty: for random systems, methods,
// schedules and worker counts, the Barrier reference runner and the
// engine must agree with textbook forward substitution (within
// round-off) and with each other bit for bit.
func TestParallelEqualsSequentialProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(59))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSPDSystem(rng, 70)
		m := order.Methods()[rng.Intn(4)]
		p, err := order.Build(a, order.Options{Method: m, RowsPerSuper: 1 + rng.Intn(10)})
		if err != nil {
			return false
		}
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref, err := sparse.ForwardSubstitution(p.S.L, b)
		if err != nil {
			return false
		}
		workers := 1 + rng.Intn(6)
		x, err := barrierSolve(p.S, b, BarrierOptions{
			Workers:  workers,
			Schedule: Schedule(rng.Intn(3)),
			Chunk:    1 + rng.Intn(4),
		})
		if err != nil || sparse.MaxAbsDiff(x, ref) >= 1e-10 {
			return false
		}
		e := newEngine(t, p, workers)
		defer e.Close()
		y, err := solveVec(e, b)
		return err == nil && slices.Equal(x, y)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestUpperEqualsSequentialProperty mirrors the forward property for the
// engine's backward sweep, which must equal the backward-substitution
// oracle bit for bit.
func TestUpperEqualsSequentialProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(67))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomSPDSystem(rng, 60)
		p, err := order.Build(a, order.Options{Method: order.STS3, RowsPerSuper: 1 + rng.Intn(8)})
		if err != nil {
			return false
		}
		u := p.S.L.Transpose()
		b := make([]float64, a.N)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		ref, err := sparse.BackwardSubstitution(u, b)
		if err != nil {
			return false
		}
		e := newEngine(t, p, 1+rng.Intn(6))
		defer e.Close()
		x, err := solveUpperVec(e, b)
		return err == nil && slices.Equal(x, ref)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
