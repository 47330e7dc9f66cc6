package solve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"stsk/internal/faultinject"
	"stsk/internal/gen"
	"stsk/internal/ichol"
	"stsk/internal/order"
	"stsk/internal/panicsafe"
	"stsk/internal/sparse"
	"stsk/internal/testmat"
)

// sameIndex compares a 32-bit layout's index with a CSR's.
func sameIndex(a int32, b int) bool { return int(a) == b }

// symmetricOf assembles A = L + Lᵀ − D in the 32-bit layout for the lower
// triangle of a, with SymmetrizePattern's CSR as its reference.
func symmetricOf(t testing.TB, a *sparse.CSR) (*sparse.CSR32, *sparse.CSR) {
	t.Helper()
	l := a.Lower()
	sh, err := sparse.NewPackShape(l)
	if err != nil {
		t.Fatal(err)
	}
	return sh.Symmetric(l, nil), sparse.SymmetrizePattern(l)
}

// chunked returns a product over a's pattern carved every rows rows with
// a team of workers, so small matrices take the multi-chunk path.
func chunked(a *sparse.CSR32, rows, workers int) *SpMV {
	m := NewSpMV(a, workers)
	bounds := []int32{0}
	for r := rows; r < a.N; r += rows {
		bounds = append(bounds, int32(r))
	}
	independent(&m.chunks, append(bounds, int32(a.N)))
	return m
}

func randomVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestSpMVMatchesMatVec: a product is CSR.MatVec over SymmetrizePattern's
// matrix bit for bit, for every corpus matrix, every chunking and worker
// count, and for the chunks NewSpMV carves itself.
func TestSpMVMatchesMatVec(t *testing.T) {
	for _, ent := range append(testmat.Corpus(), testmat.Entry{Name: "grid3d-20", A: testmat.Grid3D(20)}) {
		a, ref := symmetricOf(t, ent.A)
		x := randomVec(a.N, 3)
		want := make([]float64, a.N)
		ref.MatVec(want, x)
		for _, workers := range []int{1, 2, 4} {
			ms := map[string]*SpMV{"own": NewSpMV(a, workers)}
			for _, rows := range []int{1, 7, 64} {
				ms[fmt.Sprintf("every-%d", rows)] = chunked(a, rows, workers)
			}
			for name, m := range ms {
				y := make([]float64, a.N)
				if err := m.Apply(a, y, x); err != nil {
					t.Fatal(err)
				}
				assertBitwise(t, fmt.Sprintf("%s/%s/w%d", ent.Name, name, workers), y, want)
			}
		}
	}
}

// TestSpMVChunks: NewSpMV carves nnz/minChunkEntries non-empty chunks
// covering every row once, with no edges between them, so a matrix under
// two chunks' worth is one chunk its caller sweeps alone.
func TestSpMVChunks(t *testing.T) {
	for _, side := range []int{6, 12, 20, 30} {
		a, _ := symmetricOf(t, testmat.Grid3D(side))
		m := NewSpMV(a, 2)
		want := max(1, len(a.Col)/minChunkEntries)
		if got := m.chunks.NumTasks(); got != want {
			t.Errorf("side %d (%d entries): %d chunks, want %d", side, len(a.Col), got, want)
		}
		if m.chunks.NumEdges() != 0 {
			t.Errorf("side %d: the chunks have %d edges, want none", side, m.chunks.NumEdges())
		}
		chunks := m.chunks.RowPtr
		if chunks[0] != 0 || int(chunks[len(chunks)-1]) != a.N {
			t.Errorf("side %d: chunks %v do not span [0, %d]", side, chunks, a.N)
		}
		for c := 1; c < len(chunks); c++ {
			if chunks[c] <= chunks[c-1] {
				t.Fatalf("side %d: chunk %d is empty: %v", side, c-1, chunks)
			}
		}
	}
}

// TestSpMVContainsFaults: a panic or an injected error in the
// participants' shares fails the product with ErrInternal or the
// injected error, and the next product is clean.
func TestSpMVContainsFaults(t *testing.T) {
	a, ref := symmetricOf(t, gen.Grid2D(12, 12))
	x := randomVec(a.N, 5)
	want := make([]float64, a.N)
	ref.MatVec(want, x)
	m := chunked(a, 10, 4)
	for _, tc := range []struct {
		spec string
		want error
	}{
		{"engine.job:panic", panicsafe.ErrInternal},
		{"engine.job:error", faultinject.ErrInjected},
	} {
		withFaults(t, tc.spec, 1)
		if err := m.Apply(a, make([]float64, a.N), x); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.spec, err, tc.want)
		}
		faultinject.Disable()
		y := make([]float64, a.N)
		if err := m.Apply(a, y, x); err != nil {
			t.Fatalf("%s: product after the fault: %v", tc.spec, err)
		}
		assertBitwise(t, tc.spec+"/after", y, want)
	}
}

// TestSpMVConcurrentProducts: products on one SpMV from many goroutines
// run side by side on the helper set, each bitwise the reference.
func TestSpMVConcurrentProducts(t *testing.T) {
	a, ref := symmetricOf(t, testmat.Grid3D(12))
	m := chunked(a, 100, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := randomVec(a.N, int64(g))
			want := make([]float64, a.N)
			ref.MatVec(want, x)
			y := make([]float64, a.N)
			for rep := 0; rep < 20; rep++ {
				if err := m.Apply(a, y, x); err != nil {
					t.Error(err)
					return
				}
				for i := range y {
					if y[i] != want[i] {
						t.Errorf("goroutine %d: y[%d] = %v, want bitwise %v", g, i, y[i], want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSpMVSteadyStateAllocs: a warm product allocates nothing, inline
// and on the helpers.
func TestSpMVSteadyStateAllocs(t *testing.T) {
	testmat.SkipIfRace(t)
	a, _ := symmetricOf(t, testmat.Grid3D(12))
	x, y := randomVec(a.N, 1), make([]float64, a.N)
	for _, workers := range []int{1, 4} {
		m := chunked(a, 100, workers)
		if err := m.Apply(a, y, x); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() {
			if err := m.Apply(a, y, x); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%d workers: Apply allocates %.1f/op, want 0", workers, n)
		}
	}
}

// TestValuesSymmetricPerPattern: a value sequence assembles A′'s index
// arrays and row chunks once per pattern and shares them across epochs
// and with its derived sequences, while each epoch gathers its own
// values once. Every epoch's A′ is SymmetrizePattern's matrix of its
// factor, value for value.
func TestValuesSymmetricPerPattern(t *testing.T) {
	p := planFor(t, testmat.Grid3D(8), order.STS3)
	v := NewValues(p.S)
	check := func(label string, v *Values) *sparse.CSR32 {
		t.Helper()
		a, rows := v.Symmetric()
		if again, _ := v.Symmetric(); again != a {
			t.Fatalf("%s: the epoch's A′ is gathered more than once", label)
		}
		if rows != v.pat.rows || &a.Col[0] != &v.pat.sym.Col[0] || &a.RowPtr[0] != &v.pat.sym.RowPtr[0] {
			t.Fatalf("%s: A′ does not use the pattern's index arrays and chunks", label)
		}
		ref := sparse.SymmetrizePattern(v.Structure().L)
		for k, x := range ref.Val {
			if a.Val[k] != x || !sameIndex(a.Col[k], ref.Col[k]) {
				t.Fatalf("%s: A′ entry %d differs from SymmetrizePattern's", label, k)
			}
		}
		return a
	}
	first := check("epoch 0", v)
	doubled := make([]float64, len(p.S.L.Val))
	for k, x := range p.S.L.Val {
		doubled[k] = 2 * x
	}
	d, err := v.DeriveIC0(ichol.Options{AutoBoost: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Swap(doubled); err != nil {
		t.Fatal(err)
	}
	if check("epoch 1", v) == first || check("derived", d) == first {
		t.Fatal("a new epoch reuses an older epoch's A′ values")
	}
	if v.pat != d.pat {
		t.Fatal("the derived sequence does not share the pattern")
	}
}
