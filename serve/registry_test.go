package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stsk"
	"stsk/internal/panicsafe"
)

// refPlan builds a Plan identical to what the registry builds for a
// generated-class spec, so tests can compare registry responses bitwise
// against Plan.Solve.
func refPlan(t *testing.T, class string, n int, method stsk.Method) *stsk.Plan {
	t.Helper()
	mat, err := stsk.Generate(class, n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := stsk.Build(mat, method)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// manufacturedRHS returns a deterministic right-hand side for the plan.
func manufacturedRHS(plan *stsk.Plan, seed int) []float64 {
	xTrue := make([]float64, plan.N())
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i + seed))
	}
	return plan.RHSFor(xTrue)
}

func assertBitwise(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: differs from Plan.Solve at index %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

func TestRegistryRegisterAndSolve(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	info, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 2000, Method: "sts3"})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Loaded || info.N == 0 || info.Bytes == 0 {
		t.Fatalf("registration info incomplete: %+v", info)
	}

	ref := refPlan(t, "grid3d", 2000, stsk.STS3)
	if ref.N() != info.N {
		t.Fatalf("registry plan n=%d, reference n=%d", info.N, ref.N())
	}
	b := manufacturedRHS(ref, 1)

	x, err := reg.Solve(context.Background(), "g3", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, x, want, "forward")

	xu, err := reg.Solve(context.Background(), "g3", VariantDirect, true, b)
	if err != nil {
		t.Fatal(err)
	}
	wantU, err := ref.SolveUpper(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, xu, wantU, "upper")
}

func TestRegistrySolveErrors(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 1000}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := reg.Solve(ctx, "nope", VariantDirect, false, make([]float64, 10)); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("unknown plan: err = %v, want ErrUnknownPlan", err)
	}
	if _, err := reg.Solve(ctx, "g3", "cholmod", false, make([]float64, 10)); err == nil {
		t.Error("unknown variant accepted")
	}
	if _, err := reg.Solve(ctx, "g3", VariantDirect, false, make([]float64, 3)); !errors.Is(err, stsk.ErrDimension) {
		t.Errorf("short rhs: err = %v, want ErrDimension", err)
	}
	// The length is checked against the plan before the IC(0) factor is
	// acquired: a wrong-length request never factorizes.
	if _, err := reg.Solve(ctx, "g3", VariantIC0, false, make([]float64, 3)); !errors.Is(err, stsk.ErrDimension) {
		t.Errorf("short ic0 rhs: err = %v, want ErrDimension", err)
	}
	snap := reg.Metrics().Snapshot()
	if snap.Failed != 4 {
		t.Errorf("failed counter = %d, want 4", snap.Failed)
	}
	if snap.PlanBuilds != 1 {
		t.Errorf("plan builds = %d, want 1 (no factorization for a wrong-length request)", snap.PlanBuilds)
	}
}

func TestRegistryRegisterValidation(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	for _, spec := range []PlanSpec{
		{},          // no name
		{Name: "a"}, // no source
		{Name: "a", Class: "grid3d", Suite: "D2"},        // two sources
		{Name: "a", Class: "grid3d", Method: "cholesky"}, // bad method
		{Name: "a", Class: "hypercube9"},                 // unknown class (build-time)
	} {
		if _, err := reg.Register(spec); err == nil {
			t.Errorf("spec %+v accepted, want error", spec)
		}
	}
	// Idempotent re-registration; conflicting spec rejected.
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: 500}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: 500}); err != nil {
		t.Errorf("idempotent re-register: %v", err)
	}
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "trimesh", N: 500}); !errors.Is(err, ErrPlanExists) {
		t.Errorf("conflicting re-register: err = %v, want ErrPlanExists", err)
	}
}

func TestRegistryFilePlan(t *testing.T) {
	// A 6-node chain in Matrix Market coordinate format; the loader
	// symmetrises the pattern and assigns SPD-by-dominance values, same
	// as cmd/stssolve -file.
	mtx := `%%MatrixMarket matrix coordinate real general
6 6 11
1 1 2.0
2 2 2.0
3 3 2.0
4 4 2.0
5 5 2.0
6 6 2.0
2 1 -1.0
3 2 -1.0
4 3 -1.0
5 4 -1.0
6 5 -1.0
`
	path := filepath.Join(t.TempDir(), "chain.mtx")
	if err := os.WriteFile(path, []byte(mtx), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(Config{})
	defer reg.Close()
	info, err := reg.Register(PlanSpec{Name: "chain", File: path})
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 6 {
		t.Fatalf("file plan n = %d, want 6", info.N)
	}
	mat, err := stsk.ReadMatrixMarketFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := stsk.Build(mat, stsk.STS3)
	if err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 3)
	x, err := reg.Solve(context.Background(), "chain", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Solve(b)
	assertBitwise(t, x, want, "file plan")
}

func TestRegistryIC0Variant(t *testing.T) {
	reg := NewRegistry(Config{})
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 1500}); err != nil {
		t.Fatal(err)
	}
	ref := refPlan(t, "grid3d", 1500, stsk.STS3)
	fref, err := ref.IC0()
	if err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 5)
	x, err := reg.Solve(context.Background(), "g3", VariantIC0, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwise(t, x, want, "ic0")
	// The variant is resident now and listed; bytes grew.
	infos := reg.List()
	if len(infos) != 1 || !infos[0].IC0 {
		t.Fatalf("IC0 residency not reported: %+v", infos)
	}
	if got := reg.Metrics().Snapshot().PlanBuilds; got != 2 {
		t.Errorf("plan builds = %d, want 2 (base + ic0)", got)
	}

	// Under a budget below one plan's estimate, building a plan or its
	// factor never evicts the other: alternating direct and IC(0) solves
	// build each once.
	tight := NewRegistry(Config{BudgetBytes: infos[0].Bytes / 4})
	defer tight.Close()
	if _, err := tight.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 1500}); err != nil {
		t.Fatal(err)
	}
	direct, err := ref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for _, c := range []struct {
			variant string
			want    []float64
		}{{VariantDirect, direct}, {VariantIC0, want}} {
			x, err := tight.Solve(context.Background(), "g3", c.variant, false, b)
			if err != nil {
				t.Fatal(err)
			}
			assertBitwise(t, x, c.want, "tight-budget "+c.variant)
		}
	}
	snap := tight.Metrics().Snapshot()
	if snap.PlanBuilds != 2 || snap.Evictions != 0 {
		t.Errorf("tight budget: plan builds/evictions = %d/%d, want 2/0", snap.PlanBuilds, snap.Evictions)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	// Budget sized to hold one plan but not two: registering the second
	// evicts the first (LRU); solving the first transparently rebuilds.
	probe := NewRegistry(Config{})
	info, err := probe.Register(PlanSpec{Name: "p", Class: "grid3d", N: 2000})
	if err != nil {
		t.Fatal(err)
	}
	probe.Close()
	budget := info.Bytes + info.Bytes/2

	reg := NewRegistry(Config{BudgetBytes: budget})
	defer reg.Close()
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: 2000}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(PlanSpec{Name: "b", Class: "trimesh", N: 2000}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Loaded() != 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := reg.Loaded(); got != 1 {
		t.Fatalf("after second build: %d plans resident, want 1", got)
	}
	snap := reg.Metrics().Snapshot()
	if snap.Evictions == 0 {
		t.Fatal("no eviction recorded")
	}
	if reg.Len() != 2 {
		t.Fatalf("registered plans = %d, want 2 (evicted specs stay registered)", reg.Len())
	}

	// Solving the evicted plan rebuilds it and still answers bitwise.
	ref := refPlan(t, "grid3d", 2000, stsk.STS3)
	b := manufacturedRHS(ref, 9)
	x, err := reg.Solve(context.Background(), "a", VariantDirect, false, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.Solve(b)
	assertBitwise(t, x, want, "rebuilt after eviction")
	if got := reg.Metrics().Snapshot().PlanBuilds; got < 3 {
		t.Errorf("plan builds = %d, want ≥ 3 (a, b, a again)", got)
	}
}

func TestRegistryCloseDrains(t *testing.T) {
	reg := NewRegistry(Config{})
	if _, err := reg.Register(PlanSpec{Name: "g3", Class: "grid3d", N: 1000}); err != nil {
		t.Fatal(err)
	}
	reg.Close()
	reg.Close() // idempotent
	if _, err := reg.Solve(context.Background(), "g3", VariantDirect, false, make([]float64, 10)); !errors.Is(err, ErrDraining) {
		t.Errorf("solve after close: err = %v, want ErrDraining", err)
	}
	if _, err := reg.Register(PlanSpec{Name: "x", Class: "grid3d", N: 500}); !errors.Is(err, ErrDraining) {
		t.Errorf("register after close: err = %v, want ErrDraining", err)
	}
}

// TestSolveOutcomeClassifiedOnce: one classification, outcomeLabel,
// feeds both a solve's trace outcome and its outcome counters, for every
// sentinel a solve can end with; only a solved call observes its latency.
func TestSolveOutcomeClassifiedOnce(t *testing.T) {
	for _, tc := range []struct {
		err   error
		label string
		want  Snapshot
	}{
		{nil, "ok", Snapshot{Solved: 1}},
		{context.Canceled, "cancelled", Snapshot{Cancelled: 1}},
		{fmt.Errorf("solve: %w", context.DeadlineExceeded), "cancelled", Snapshot{Cancelled: 1}},
		{ErrQueueFull, "rejected", Snapshot{Rejected: 1}},
		{ErrShed, "shed", Snapshot{Degraded: 1}},
		{ErrDegraded, "degraded", Snapshot{Degraded: 1}},
		{panicsafe.AsError("kernel fault"), "panic", Snapshot{PanicsRecovered: 1, Failed: 1}},
		{fmt.Errorf("%w: %q", ErrUnknownPlan, "nope"), "error", Snapshot{Failed: 1}},
	} {
		if got := outcomeLabel(tc.err); got != tc.label {
			t.Errorf("%v: outcome %q, want %q", tc.err, got, tc.label)
		}
		var m Metrics
		m.countOutcome(tc.err, time.Millisecond)
		if got := m.Snapshot(); got != tc.want {
			t.Errorf("%v: counters %+v, want %+v", tc.err, got, tc.want)
		}
		if got, want := m.latency.count.Load(), tc.want.Solved; got != want {
			t.Errorf("%v: %d latencies observed, want %d", tc.err, got, want)
		}
	}
}
