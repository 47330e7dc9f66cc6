package stsk

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// buildValMap is the reference for sourceSlots: the slot map computed
// from a stored copy of the source pattern, by a binary search of row
// perm[i] of l for every source entry (i, j) with perm[j] ≤ perm[i], and
// -1 for the others.
func buildValMap(rowPtr, col, perm []int, l *sparse.CSR) ([]int32, error) {
	vm := make([]int32, len(col))
	for i := 0; i+1 < len(rowPtr); i++ {
		pi := perm[i]
		lo, hi := l.RowPtr[pi], l.RowPtr[pi+1]
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			pj := perm[col[k]]
			if pj > pi {
				vm[k] = -1
				continue
			}
			idx, ok := slices.BinarySearch(l.Col[lo:hi], pj)
			if !ok {
				return nil, fmt.Errorf("entry (%d,%d) has no slot in the factor", i, col[k])
			}
			vm[k] = int32(lo + idx)
		}
	}
	return vm, nil
}

// checkSourceSlots builds a plan of every method on m and requires the
// slot map derived from its factor to equal the reference computed from
// m's stored pattern, and m's pattern to pass isSourcePattern.
func checkSourceSlots(t *testing.T, label string, m *Matrix) {
	t.Helper()
	for _, method := range Methods() {
		p, err := Build(m, method)
		if err != nil {
			t.Fatalf("%s/%v: %v", label, method, err)
		}
		l := p.structure().L
		want, err := buildValMap(m.a.RowPtr, m.a.Col, p.perm, l)
		if err != nil {
			t.Fatalf("%s/%v: reference: %v", label, method, err)
		}
		sh, err := p.vals.Shape()
		if err != nil {
			t.Fatal(err)
		}
		if got := sourceSlots(l, sh, p.perm); !slices.Equal(got, want) {
			t.Fatalf("%s/%v: derived slot map differs from the stored pattern's", label, method)
		}
		if !isSourcePattern(m.a, l, p.perm) {
			t.Fatalf("%s/%v: the source matrix fails its own plan's pattern check", label, method)
		}
	}
}

// TestSourceSlotsMatchReference: the slot map Refactor derives from the
// factor, the transpose rows and the permutation equals the one a stored
// source pattern gives, under every method, on every matrix class, every
// Table 1 stand-in, the test corpus, and a Matrix Market file whose
// entries come unsorted, repeated, from one triangle only for some pairs
// and without some diagonals.
func TestSourceSlotsMatchReference(t *testing.T) {
	for _, class := range []string{"grid2d", "grid3d", "kkt3d", "fem3d", "rgg", "trimesh", "quaddual", "roadnet"} {
		m, err := Generate(class, 700)
		if err != nil {
			t.Fatal(err)
		}
		checkSourceSlots(t, class, m)
	}
	for _, id := range SuiteIDs() {
		m, err := GenerateSuite(id, 600)
		if err != nil {
			t.Fatal(err)
		}
		checkSourceSlots(t, id, m)
	}
	for _, ent := range testmat.Corpus() {
		checkSourceSlots(t, ent.Name, &Matrix{a: ent.A})
	}

	const n = 60
	rng := rand.New(rand.NewSource(5))
	var lines []string
	for k := 0; k < 240; k++ {
		i, j := rng.Intn(n)+1, rng.Intn(n)+1
		lines = append(lines, fmt.Sprintf("%d %d %g", i, j, rng.Float64()))
		switch k % 4 {
		case 0: // repeated
			lines = append(lines, fmt.Sprintf("%d %d %g", i, j, rng.Float64()))
		case 1: // both triangles
			lines = append(lines, fmt.Sprintf("%d %d %g", j, i, rng.Float64()))
		}
	}
	for i := 1; i <= n; i += 3 {
		lines = append(lines, fmt.Sprintf("%d %d 4", i, i))
	}
	rng.Shuffle(len(lines), func(a, b int) { lines[a], lines[b] = lines[b], lines[a] })
	src := fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n%s\n", n, n, len(lines), strings.Join(lines, "\n"))
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	checkSourceSlots(t, "matrix market", m)
}

// editPattern returns a copy of a's pattern with row r's entries
// replaced by edit's result, every value 1.
func editPattern(a *sparse.CSR, r int, edit func([]int) []int) *Matrix {
	out := &sparse.CSR{N: a.N, RowPtr: make([]int, a.N+1)}
	for i := 0; i < a.N; i++ {
		cols := slices.Clone(a.Col[a.RowPtr[i]:a.RowPtr[i+1]])
		if i == r {
			cols = edit(cols)
		}
		out.Col = append(out.Col, cols...)
		out.RowPtr[i+1] = len(out.Col)
	}
	out.Val = make([]float64, len(out.Col))
	for k := range out.Val {
		out.Val[k] = 1
	}
	return &Matrix{a: out}
}

// TestRefactorMatrixRefusesPatternEdits: RefactorMatrix refuses with
// ErrSparsityMismatch, publishing nothing, a matrix whose pattern
// differs from the source's by one entry moved within its row (same
// count), one row's entries reordered, one entry dropped or one added —
// and accepts the source's own pattern.
func TestRefactorMatrixRefusesPatternEdits(t *testing.T) {
	m, err := Generate("grid2d", 400)
	if err != nil {
		t.Fatal(err)
	}
	const r = 45 // an interior row: columns r−20, r−1, r, r+1, r+20
	edits := map[string]func([]int) []int{
		"entry moved within its row": func(c []int) []int { c[len(c)-1]++; return c },
		"row reordered":              func(c []int) []int { c[0], c[1] = c[1], c[0]; return c },
		"entry dropped":              func(c []int) []int { return c[:len(c)-1] },
		"entry added":                func(c []int) []int { return append(c, c[len(c)-1]+1) },
	}
	for _, method := range Methods() {
		p, err := Build(m, method)
		if err != nil {
			t.Fatal(err)
		}
		for name, edit := range edits {
			if err := p.RefactorMatrix(editPattern(m.a, r, edit)); !errors.Is(err, ErrSparsityMismatch) {
				t.Fatalf("%v/%s: err = %v, want ErrSparsityMismatch", method, name, err)
			}
		}
		if v := p.ValuesVersion(); v != 0 {
			t.Fatalf("%v: version %d after refused matrices, want 0", method, v)
		}
		if err := p.RefactorMatrix(editPattern(m.a, r, func(c []int) []int { return c })); err != nil {
			t.Fatalf("%v: the source pattern refused: %v", method, err)
		}
	}
}

// TestRefactorReleasesBuildValues: once a Refactor has published new
// values, nothing reachable from the plan or from a two-worker Solver
// that has solved — no field, no pooled closure — holds the factor
// values the plan was built with, so the collector frees them.
func TestRefactorReleasesBuildValues(t *testing.T) {
	m, err := Generate("grid3d", 8000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	s := p.NewSolver(WithWorkers(2))
	defer s.Close()
	B, _ := manufacturedRHS(p, 10)
	if _, err := s.SolveBlock(t.Context(), B); err != nil { // several panels
		t.Fatal(err)
	}
	if _, err := s.Solve(B[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Solve(B[0]); err != nil {
		t.Fatal(err)
	}
	y := make([]float64, p.N())
	if err := p.ApplySymmetric(y, B[0]); err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	runtime.AddCleanup(&p.structure().L.Val[0], func(ch chan struct{}) { close(ch) }, released)
	if err := p.Refactor(perturbValues(m.Values(), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(B[0]); err != nil {
		t.Fatal(err)
	}
	for try := 0; ; try++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(p)
			runtime.KeepAlive(s)
			return
		case <-time.After(20 * time.Millisecond):
		}
		if try == 50 {
			t.Fatal("the build-time factor values are still reachable after Refactor")
		}
	}
}

// TestIC0ReleasesBaseValues: an IC(0) factor computed on the helpers
// keeps none of the base epoch's values reachable — not through the
// factor plan, nor through the run a parked helper last swept — so a
// Refactor of the base releases them while the factor lives on.
func TestIC0ReleasesBaseValues(t *testing.T) {
	m, err := Generate("grid3d", 8000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := NewIC0(p, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ic.Close()
	released := make(chan struct{})
	runtime.AddCleanup(&p.structure().L.Val[0], func(ch chan struct{}) { close(ch) }, released)
	if err := p.Refactor(perturbValues(m.Values(), 1)); err != nil {
		t.Fatal(err)
	}
	for try := 0; ; try++ {
		runtime.GC()
		select {
		case <-released:
			runtime.KeepAlive(p)
			runtime.KeepAlive(ic)
			return
		case <-time.After(20 * time.Millisecond):
		}
		if try == 50 {
			t.Fatal("the base epoch's values are still reachable after an IC(0) factorisation and a Refactor")
		}
	}
}

// TestDerivedStateConcurrentFirstUse: right after each Refactor, some
// goroutines take the epoch's first products while others create
// multi-worker Solvers and solve, and others derive IC(0) factors and
// solve with them — so the pattern's task DAG and A′ index arrays (on
// the first epoch; Refactor has built the packed shape) and each epoch's
// gathered values are built under contention. Every result equals its
// epoch's reference bit for bit.
func TestDerivedStateConcurrentFirstUse(t *testing.T) {
	m, err := Generate("grid3d", 4000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	x := rampVec(p.N())
	b := manufacturedB(p, 3)
	for epoch := 1; epoch <= 3; epoch++ {
		vals := perturbValues(m.Values(), epoch)
		if err := ref.Refactor(vals); err != nil {
			t.Fatal(err)
		}
		wantY := symmetricRef(ref, x)
		wantX, err := ref.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		ic, err := ref.IC0()
		if err != nil {
			t.Fatal(err)
		}
		wantIC, err := ic.SolveSequential(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Refactor(vals); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 9; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				label := fmt.Sprintf("epoch %d goroutine %d", epoch, g)
				switch g % 3 {
				case 0:
					y := make([]float64, p.N())
					if err := p.ApplySymmetric(y, x); err != nil {
						t.Error(err)
					} else if !slices.Equal(y, wantY) {
						t.Errorf("%s: product differs from its epoch's reference", label)
					}
				case 1:
					s := p.NewSolver(WithWorkers(2 + g%2))
					defer s.Close()
					if got, err := s.Solve(b); err != nil {
						t.Error(err)
					} else if !slices.Equal(got, wantX) {
						t.Errorf("%s: solve differs from its epoch's reference", label)
					}
				case 2:
					f, err := p.IC0()
					if err != nil {
						t.Error(err)
						return
					}
					s := f.NewSolver(WithWorkers(2))
					defer s.Close()
					if got, err := s.Solve(b); err != nil {
						t.Error(err)
					} else if !slices.Equal(got, wantIC) {
						t.Errorf("%s: IC(0) solve differs from its epoch's reference", label)
					}
				}
			}()
		}
		wg.Wait()
	}
}
