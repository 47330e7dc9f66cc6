package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stsk"
)

// TestUpdateValuesEvictionStaleness is the headline regression test for
// the UpdateValues/eviction staleness race: under budget churn, an
// eviction could detach the state an update had refactored while a
// concurrent rebuild re-read the entry's OLD value array; the update
// then committed its values and bumped the version anyway, leaving a
// resident plan that served the previous values under the new version
// number until the next eviction.
//
// The fix makes the commit conditional on the refactored state still
// being the resident one (or nothing resident and no build in flight),
// looping to reapply otherwise — so the invariant below is exact: once
// UpdateValues returns, every subsequent solve is bitwise the solve of
// a plan refactored with those values, eviction storms notwithstanding.
// Run under -race; pre-fix this fails within a few rounds.
func TestUpdateValuesEvictionStaleness(t *testing.T) {
	reg := NewRegistry(Config{BudgetBytes: 1 << 19}) // one resident plan at most
	defer reg.Close()
	const n = 900
	if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: n, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register(PlanSpec{Name: "b", Class: "grid3d", N: n, Method: "sts3"}); err != nil {
		t.Fatal(err)
	}

	ref := refPlan(t, "grid3d", n, stsk.STS3)
	b := manufacturedRHS(ref, 7)

	// Churners: hammering "b" under the tiny budget evicts "a" over and
	// over; hammering "a" makes the post-eviction rebuild start the
	// instant the eviction lands — which is exactly the rebuild that
	// races the update's value commit.
	stop := make(chan struct{})
	var churned sync.WaitGroup
	var churnErr atomic.Value
	rhs := make([]float64, ref.N()) // grid3d rounds n down to a cube
	for i := range rhs {
		rhs[i] = 1
	}
	for _, name := range []string{"a", "b"} {
		name := name
		churned.Add(1)
		go func() {
			defer churned.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				variant := VariantDirect
				if i%2 == 1 {
					variant = VariantIC0
				}
				if _, err := reg.Solve(context.Background(), name, variant, false, rhs); err != nil {
					churnErr.Store(err)
					return
				}
			}
		}()
	}

	const rounds = 40
	for i := 1; i <= rounds; i++ {
		vals := scaledValues(t, "grid3d", n, 1+float64(i)/rounds)
		if _, err := reg.UpdateValues("a", vals, 0); err != nil {
			t.Fatalf("round %d: UpdateValues: %v", i, err)
		}
		// No other updater exists, so from the moment UpdateValues
		// returned, "a" must solve on exactly these values — whether the
		// refactored state survived, or an eviction forced a rebuild that
		// replayed them — and so must its IC(0) factor, which the update
		// left stale.
		if err := ref.Refactor(vals); err != nil {
			t.Fatal(err)
		}
		want, err := ref.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reg.Solve(context.Background(), "a", VariantDirect, false, b)
		if err != nil {
			t.Fatalf("round %d: Solve: %v", i, err)
		}
		assertBitwise(t, got, want, "post-update solve")
		fref, err := ref.IC0()
		if err != nil {
			t.Fatal(err)
		}
		if want, err = fref.Solve(b); err != nil {
			t.Fatal(err)
		}
		if got, err = reg.Solve(context.Background(), "a", VariantIC0, false, b); err != nil {
			t.Fatalf("round %d: ic0 Solve: %v", i, err)
		}
		assertBitwise(t, got, want, "post-update ic0 solve")
	}
	close(stop)
	churned.Wait()
	if err := churnErr.Load(); err != nil {
		t.Fatalf("churner: %v", err)
	}

	// The version advanced once per update on top of the initial 1.
	for _, pi := range reg.List() {
		if pi.Spec.Name == "a" && pi.Version != rounds+1 {
			t.Fatalf("version %d after %d updates, want %d", pi.Version, rounds, rounds+1)
		}
	}
}

// TestIC0NeverOutlivesUncommittedValues pins the two rules that keep an
// IC(0) factor from serving values no version ever committed. Such
// values exist on a plan state when UpdateValues refactors it, the state
// is evicted before the commit, and the retry then fails (say, with
// ErrDegraded); refactorUncommitted stands in for that sequence. A
// factor derived from such a state carries the plan's old version tag,
// so only its lifecycle can retire it:
//   - evicting a plan evicts its factor, and
//   - a factor whose plan state was evicted while it was being derived
//     serves its own caller but is re-derived for the next.
func TestIC0NeverOutlivesUncommittedValues(t *testing.T) {
	const n = 900
	ref := refPlan(t, "grid3d", n, stsk.STS3)
	fref, err := ref.IC0()
	if err != nil {
		t.Fatal(err)
	}
	b := manufacturedRHS(ref, 3)
	want, err := fref.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	uncommitted := scaledValues(t, "grid3d", n, 2)

	probe := NewRegistry(Config{})
	info, err := probe.Register(PlanSpec{Name: "a", Class: "grid3d", N: n})
	if err != nil {
		t.Fatal(err)
	}
	plan := info.Bytes
	if _, err := probe.Solve(context.Background(), "a", VariantIC0, false, b); err != nil {
		t.Fatal(err)
	}
	withFactor := probe.List()[0].Bytes
	probe.Close()

	check := func(reg *Registry, label string) {
		t.Helper()
		x, err := reg.Solve(context.Background(), "a", VariantIC0, false, b)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		assertBitwise(t, x, want, label)
	}

	t.Run("evicted with its plan", func(t *testing.T) {
		// Holds a plan with its factor, and a second plan only once the
		// first plan is gone.
		reg := NewRegistry(Config{BudgetBytes: withFactor + plan/2})
		defer reg.Close()
		if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: n}); err != nil {
			t.Fatal(err)
		}
		refactorUncommitted(t, reg, "a", uncommitted)
		if _, err := reg.Solve(context.Background(), "a", VariantIC0, false, b); err != nil {
			t.Fatal(err)
		}
		// Building "b" evicts the least recently used state, a's plan.
		if _, err := reg.Register(PlanSpec{Name: "b", Class: "grid3d", N: n}); err != nil {
			t.Fatal(err)
		}
		check(reg, "ic0 after its plan was evicted")
	})

	t.Run("plan evicted mid-derivation", func(t *testing.T) {
		// Holds one plan, so building "b" evicts a's.
		reg := NewRegistry(Config{BudgetBytes: plan + plan/2})
		defer reg.Close()
		if _, err := reg.Register(PlanSpec{Name: "a", Class: "grid3d", N: n}); err != nil {
			t.Fatal(err)
		}
		// Hold the derivation after it has picked its plan state, long
		// enough to refactor and evict that state underneath it.
		withFaults(t, "registry.build:latency:count=1,d=200ms", 1)
		served := make(chan error, 1)
		go func() {
			_, err := reg.Solve(context.Background(), "a", VariantIC0, false, b)
			served <- err
		}()
		for derived := false; !derived; {
			reg.mu.Lock()
			derived = reg.entries["a"].ic0 != nil && reg.entries["a"].ic0.building != nil
			reg.mu.Unlock()
			time.Sleep(time.Millisecond)
		}
		refactorUncommitted(t, reg, "a", uncommitted)
		if _, err := reg.Register(PlanSpec{Name: "b", Class: "grid3d", N: n}); err != nil {
			t.Fatal(err)
		}
		if err := <-served; err != nil {
			t.Fatalf("caller of the interrupted derivation: %v", err)
		}
		check(reg, "ic0 after a derivation outlived its plan state")
	})
}

// refactorUncommitted swaps values into the named plan's resident state
// without committing them to its entry.
func refactorUncommitted(t *testing.T, reg *Registry, name string, vals []float64) {
	t.Helper()
	reg.mu.Lock()
	st := reg.entries[name].st
	reg.mu.Unlock()
	if err := st.plan.Refactor(vals); err != nil {
		t.Fatal(err)
	}
}
