package stsk

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"stsk/internal/ichol"
	"stsk/internal/solve"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// TestIC0NonFiniteFactorRefused: finite values whose unshifted IC(0)
// elimination overflows — L[i,j] to −Inf, then L[i,k] = −Inf·0 = NaN —
// must never come back as a factor carrying NaN or ±Inf with a nil
// error. Refactor accepts the values (every one finite, no zero
// diagonal). The NaN pivot is a breakdown, so AutoBoost retries with a
// shift of 1e-3·max|A′ᵢᵢ|: with A′[j,j] = 1e221 that shifted factor is
// finite and IC0 returns it; with A′[j,j] = MaxFloat64 the shifted
// diagonal overflows to +Inf and IC0 refuses with ErrNonFinite.
func TestIC0NonFiniteFactorRefused(t *testing.T) {
	m, err := Generate("trimesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		djj  float64
		want error
	}{
		{1e221, nil},
		{math.MaxFloat64, ErrNonFinite},
	} {
		p, err := Build(m, STS3)
		if err != nil {
			t.Fatal(err)
		}
		vals, ok := ic0OverflowValues(m.a, p.perm, tc.djj)
		if !ok {
			t.Fatal("no overflow pattern in the plan's factor")
		}
		if err := p.Refactor(vals); err != nil {
			t.Fatalf("A′[j,j]=%g: refactor refused finite values: %v", tc.djj, err)
		}
		ic, err := p.IC0()
		if !errors.Is(err, tc.want) || (tc.want != nil && ic != nil) {
			t.Fatalf("A′[j,j]=%g: IC0 error %v, want %v", tc.djj, err, tc.want)
		}
		if err != nil {
			continue
		}
		for k, v := range ic.structure().L.Val {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("A′[j,j]=%g: factor value %d is %v", tc.djj, k, v)
			}
		}
		x, err := ic.Solve(make([]float64, ic.N()))
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range x {
			if v != 0 {
				t.Fatalf("A′[j,j]=%g: factor solve of a zero right-hand side: x[%d] = %v", tc.djj, i, v)
			}
		}
	}
}

// ic0OverflowValues returns input-order values for a, ordered into a
// plan by the row permutation perm (input row → plan row), on which IC(0)
// of the plan's factor L′ overflows although every value is finite and
// every diagonal nonzero. It takes the first plan rows m < j < k < i (by
// i, then m, j, k) with (i,m), (i,j), (i,k), (j,m) and (k,j) stored in L′
// and sets the identity except A′[i,m] = 1e200, A′[j,m] = 1e110,
// A′[j,j] = djj (at least 1e221) and A′[i,j] = A′[i,k] = 1, each
// off-diagonal at both of its input positions. Unshifted elimination then
// makes L[i,j] = (1 − 1e310)/L[j,j] = −Inf and L[i,k] = −Inf·L[k,j] =
// −Inf·0 = NaN. ok is false when a has no such rows.
func ic0OverflowValues(a *sparse.CSR, perm []int, djj float64) (vals []float64, ok bool) {
	lower := make([][]int, a.N) // plan row → its sorted columns below the diagonal
	for r := 0; r < a.N; r++ {
		for _, c := range a.Col[a.RowPtr[r]:a.RowPtr[r+1]] {
			if pi, pj := perm[r], perm[c]; pj < pi {
				lower[pi] = append(lower[pi], pj)
			}
		}
	}
	for _, cols := range lower {
		slices.Sort(cols)
	}
	has := func(i, j int) bool { _, found := slices.BinarySearch(lower[i], j); return found }
	for i, cols := range lower {
		for x, m := range cols {
			for y := x + 1; y < len(cols); y++ {
				j := cols[y]
				if !has(j, m) {
					continue
				}
				for _, k := range cols[y+1:] {
					if !has(k, j) {
						continue
					}
					set := map[[2]int]float64{{i, m}: 1e200, {j, m}: 1e110, {j, j}: djj, {i, j}: 1, {i, k}: 1}
					vals = make([]float64, len(a.Col))
					for r := 0; r < a.N; r++ {
						for q := a.RowPtr[r]; q < a.RowPtr[r+1]; q++ {
							pi, pj := max(perm[r], perm[a.Col[q]]), min(perm[r], perm[a.Col[q]])
							if v, hit := set[[2]int{pi, pj}]; hit {
								vals[q] = v
							} else if pi == pj {
								vals[q] = 1
							}
						}
					}
					return vals, true
				}
			}
		}
	}
	return nil, false
}

// TestIC0MatchesReferenceFactor: Plan.IC0's factor is, bit for bit, the
// IC(0) factor of tril(A′) with A′ = SymmetrizePattern(L′) — the full
// symmetric matrix the factor was once computed from — for every corpus
// matrix under every method, before and after a Refactor. tril(A′) is
// L′ exactly, which is what lets IC0 factor on L′'s own pattern.
func TestIC0MatchesReferenceFactor(t *testing.T) {
	for _, ent := range testmat.Corpus() {
		m := &Matrix{a: ent.A}
		for _, method := range Methods() {
			p, err := Build(m, method)
			if err != nil {
				t.Fatalf("%s/%v: %v", ent.Name, method, err)
			}
			for step := 0; step <= 1; step++ {
				label := ent.Name + "/" + method.String()
				if step == 1 {
					label += "/refactored"
					if err := p.Refactor(perturbValues(m.Values(), 3)); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
				}
				l := p.structure().L
				want, wantErr := ichol.Factor(sparse.SymmetrizePattern(l).Lower(), ichol.Options{AutoBoost: true})
				ic, err := p.IC0()
				switch {
				case wantErr != nil:
					if err == nil {
						t.Fatalf("%s: IC0 factored what the reference refused (%v)", label, wantErr)
					}
				case solve.CheckFinite(want) != nil:
					if !errors.Is(err, ErrNonFinite) {
						t.Fatalf("%s: IC0 error %v on a non-finite reference factor, want ErrNonFinite", label, err)
					}
				case err != nil:
					t.Fatalf("%s: IC0: %v", label, err)
				default:
					assertVecBitwise(t, label, ic.structure().L.Val, want)
				}
			}
		}
	}
}

// TestIC0SharesBaseSymbolicState: a derived factor plan carries new values
// only. Its pattern arrays, super-row and pack boundaries, permutation,
// task DAG and packed shape are the base plan's own, by pointer — and a
// Refactor of the base leaves the factor's values alone.
func TestIC0SharesBaseSymbolicState(t *testing.T) {
	m := &Matrix{a: testmat.Grid3D(6)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := p.IC0()
	if err != nil {
		t.Fatal(err)
	}
	ps, fs := p.structure(), ic.structure()
	same := func(name string, a, b []int) {
		t.Helper()
		if len(a) == 0 || len(a) != len(b) || &a[0] != &b[0] {
			t.Fatalf("%s is not shared with the base plan", name)
		}
	}
	same("RowPtr", fs.L.RowPtr, ps.L.RowPtr)
	same("Col", fs.L.Col, ps.L.Col)
	same("SuperPtr", fs.SuperPtr, ps.SuperPtr)
	same("PackPtr", fs.PackPtr, ps.PackPtr)
	same("Perm", ic.perm, p.perm)
	if ic.vals.TaskDAG() != p.vals.TaskDAG() {
		t.Fatal("task DAG is not shared with the base plan")
	}
	bs, err := p.vals.Shape()
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := ic.vals.Shape(); s != bs {
		t.Fatal("packed shape is not shared with the base plan")
	}
	before := append([]float64(nil), fs.L.Val...)
	if err := p.Refactor(perturbValues(m.Values(), 1)); err != nil {
		t.Fatal(err)
	}
	assertVecBitwise(t, "factor after base refactor", ic.structure().L.Val, before)
	if err := ic.Refactor(m.Values()); !errors.Is(err, ErrSparsityMismatch) {
		t.Fatalf("refactor of a derived plan: %v, want ErrSparsityMismatch", err)
	}
}

// TestIC0ConcurrentFirstSolves: a fresh base plan and its factor — no
// epoch of either pinned yet — are first solved from several goroutines
// at once, forward and backward, so the packed shape they share is built
// under contention. Every answer must equal its sequential oracle bit
// for bit.
func TestIC0ConcurrentFirstSolves(t *testing.T) {
	m := &Matrix{a: testmat.TriMesh(14)}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := p.IC0()
	if err != nil {
		t.Fatal(err)
	}
	b := manufacturedB(p, 4)
	plans := [2]*Plan{p, ic}
	var want [2][2][]float64 // [plan][forward, backward]
	for q, pl := range plans {
		l := pl.structure().L
		if want[q][0], err = sparse.ForwardSubstitution(l, b); err != nil {
			t.Fatal(err)
		}
		if want[q][1], err = sparse.BackwardSubstitution(l.Transpose(), b); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, dir := g%2, g/2%2
			solveFn := plans[q].Solve
			if dir == 1 {
				solveFn = plans[q].SolveUpper
			}
			x, err := solveFn(b)
			if err == nil && !slices.Equal(x, want[q][dir]) {
				err = fmt.Errorf("plan %d direction %d: answer differs from the sequential oracle", q, dir)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	bs, _ := p.vals.Shape()
	if fs, _ := ic.vals.Shape(); fs != bs {
		t.Fatal("base and factor built separate packed shapes")
	}
}

// ic0Reference is Plan.IC0's outcome on the plan's live factor as the
// sequential reference gives it: ichol.Factor's values with AutoBoost,
// or its refusal — a non-finite factor as IC0 refuses it.
func ic0Reference(p *Plan) ([]float64, error) {
	want, err := ichol.Factor(p.structure().L, ichol.Options{AutoBoost: true})
	if err == nil {
		if nf := solve.CheckFinite(want); nf != nil {
			return nil, fmt.Errorf("stsk: ic0 factor refused: %w", nf)
		}
	}
	return want, err
}

// assertIC0 fails unless an IC(0) derivation's outcome (ic, err) is the
// reference's: the same factor values bit for bit, or a refusal with the
// same text and no plan.
func assertIC0(t *testing.T, label string, ic *Plan, err error, want []float64, wantErr error) {
	t.Helper()
	if wantErr != nil || err != nil {
		if wantErr == nil || err == nil || ic != nil || err.Error() != wantErr.Error() {
			t.Fatalf("%s: IC0 returned %v, the reference %v", label, err, wantErr)
		}
		return
	}
	assertVecBitwise(t, label, ic.structure().L.Val, want)
}

// TestNewIC0WorkersMatchReference: NewIC0 factors over the task DAG on
// WithWorkers(w) goroutines, and for w = 1, 2 and 4 its factor equals
// ichol.Factor's bit for bit — or refuses with its text — for the corpus
// under every method (four rows per super-row, so the DAG has many
// tasks), before and after a Refactor that flips signs. A trimesh whose
// unshifted factorisation breaks down on a NaN pivot is one more case:
// AutoBoost retries it at the first shift.
func TestNewIC0WorkersMatchReference(t *testing.T) {
	check := func(label string, p *Plan) {
		t.Helper()
		want, wantErr := ic0Reference(p)
		for _, w := range []int{1, 2, 4} {
			pc, err := NewIC0(p, WithWorkers(w))
			var ic *Plan
			if pc != nil {
				ic = pc.Factor()
				pc.Close()
			}
			assertIC0(t, fmt.Sprintf("%s/w=%d", label, w), ic, err, want, wantErr)
		}
	}
	build := func(m *Matrix, method Method) *Plan {
		t.Helper()
		p, err := Build(m, method, WithRowsPerSuper(4))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, ent := range testmat.Corpus() {
		m := &Matrix{a: ent.A}
		for _, method := range Methods() {
			label := ent.Name + "/" + method.String()
			p := build(m, method)
			check(label, p)
			if err := p.Refactor(perturbValues(m.Values(), 3)); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			check(label+"/refactored", p)
		}
	}
	tri, err := Generate("trimesh", 64)
	if err != nil {
		t.Fatal(err)
	}
	p := build(tri, STS3)
	vals, ok := ic0OverflowValues(tri.a, p.perm, 1e221)
	if !ok {
		t.Fatal("no overflow pattern in the plan's factor")
	}
	if err := p.Refactor(vals); err != nil {
		t.Fatal(err)
	}
	if _, err := ichol.Factor(p.structure().L, ichol.Options{}); err == nil {
		t.Fatal("the unshifted factorisation of the overflow values did not break down")
	}
	check("trimesh/overflow", p)
}

// TestIC0ConcurrentDerivations: IC(0) is derived on several goroutines
// at once — Plan.IC0 and NewIC0 at two workers — while the base plan is
// solved and refactored between two value sets. Each derivation pins one
// epoch, so its factor must equal the reference factor of one of the two
// value sets bit for bit, and its forward solve that factor's sequential
// solve; every base solve must equal one value set's sequential solve.
func TestIC0ConcurrentDerivations(t *testing.T) {
	m := &Matrix{a: testmat.TriMesh(14)}
	p, err := Build(m, STS3, WithRowsPerSuper(8))
	if err != nil {
		t.Fatal(err)
	}
	sets := [2][]float64{m.Values(), m.Values()}
	for k := range sets[1] {
		sets[1][k] *= 2
	}
	b := manufacturedB(p, 3)
	var ref, xBase, xIC [2][]float64
	for s := 1; s >= 0; s-- {
		if err := p.Refactor(sets[s]); err != nil {
			t.Fatal(err)
		}
		if ref[s], err = ichol.Factor(p.structure().L, ichol.Options{AutoBoost: true}); err != nil {
			t.Fatal(err)
		}
		if xBase[s], err = p.SolveSequential(b); err != nil {
			t.Fatal(err)
		}
		l := p.structure().L
		if xIC[s], err = sparse.ForwardSubstitution(&sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: ref[s]}, b); err != nil {
			t.Fatal(err)
		}
	}
	matches := func(got []float64, want [2][]float64) bool {
		return slices.Equal(got, want[0]) || slices.Equal(got, want[1])
	}
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	run := func(f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				if err := f(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	derive := func(viaNewIC0 bool) func() error {
		return func() error {
			var ic *Plan
			var err error
			if viaNewIC0 {
				var pc *IC0Preconditioner
				if pc, err = NewIC0(p, WithWorkers(2)); err == nil {
					defer pc.Close()
					ic = pc.Factor()
				}
			} else {
				ic, err = p.IC0()
			}
			if err != nil {
				return err
			}
			if !matches(ic.structure().L.Val, ref) {
				return fmt.Errorf("a concurrent IC(0) factor matches neither value set's reference")
			}
			x, err := ic.Solve(b)
			if err == nil && !matches(x, xIC) {
				err = fmt.Errorf("a concurrent IC(0) factor's solve matches neither reference solve")
			}
			return err
		}
	}
	for g := range 4 {
		run(derive(g%2 == 1))
	}
	for range 2 {
		run(func() error {
			x, err := p.Solve(b)
			if err == nil && !matches(x, xBase) {
				err = fmt.Errorf("a base solve matches neither value set's sequential solve")
			}
			return err
		})
	}
	step := 0
	run(func() error {
		step++
		return p.Refactor(sets[step%2])
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
