package stsk

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"stsk/internal/sparse"
)

func TestGenerateClasses(t *testing.T) {
	for _, class := range []string{"grid2d", "grid3d", "kkt3d", "fem3d", "rgg", "trimesh", "quaddual", "roadnet"} {
		m, err := Generate(class, 1200)
		if err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if m.N() < 100 {
			t.Fatalf("%s: n=%d too small", class, m.N())
		}
		if m.NNZ() < m.N() || m.RowDensity() < 1 {
			t.Fatalf("%s: implausible nnz", class)
		}
	}
	if _, err := Generate("nope", 100); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestGenerateSuiteAndIDs(t *testing.T) {
	ids := SuiteIDs()
	if len(ids) != 12 || ids[0] != "G1" || ids[11] != "D10" {
		t.Fatalf("SuiteIDs = %v", ids)
	}
	m, err := GenerateSuite("D2", 800)
	if err != nil {
		t.Fatal(err)
	}
	if m.N() < 400 {
		t.Fatalf("suite matrix too small: %d", m.N())
	}
	if _, err := GenerateSuite("X9", 100); err == nil {
		t.Fatal("unknown suite id accepted")
	}
}

func TestBuildSolveRoundTripAllMethods(t *testing.T) {
	m, err := Generate("trimesh", 1500)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, method := range Methods() {
		p, err := Build(m, method, WithRowsPerSuper(10))
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if p.Method() != method || p.N() != m.N() {
			t.Fatalf("%v: plan metadata wrong", method)
		}
		xTrue := make([]float64, p.N())
		for i := range xTrue {
			xTrue[i] = rng.NormFloat64()
		}
		b := p.RHSFor(xTrue)
		x, err := p.Solve(b)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if r := p.Residual(x, b); r > 1e-9 {
			t.Fatalf("%v: residual %g", method, r)
		}
		seq, err := p.SolveSequential(b)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		for i := range seq {
			if d := seq[i] - x[i]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%v: parallel and sequential disagree at %d", method, i)
			}
		}
	}
}

// solveWith solves b on a fresh Solver built with opts.
func solveWith(p *Plan, b []float64, opts ...Option) ([]float64, error) {
	s := p.NewSolver(opts...)
	defer s.Close()
	return s.Solve(b)
}

// solveUpperWith solves L′ᵀx = b on a fresh Solver built with opts.
func solveUpperWith(p *Plan, b []float64, opts ...Option) ([]float64, error) {
	s := p.NewSolver(opts...)
	defer s.Close()
	return s.SolveUpper(b)
}

// TestFactorSizeRefused drives the check Build and ReadSnapshot share: a
// factor whose dimension or stored-entry count does not fit 32-bit
// indices is refused with ErrTooLarge, so every Plan has a packed layout,
// and a factor holding a NaN is refused with ErrNonFinite.
func TestFactorSizeRefused(t *testing.T) {
	if err := checkFactorSize(&sparse.CSR{N: math.MaxInt32}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize dimension: %v, want ErrTooLarge", err)
	}
	m, _ := Generate("grid2d", 100)
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	l := p.structure().L
	if err := checkFactorSize(l); err != nil {
		t.Fatalf("in-range factor refused: %v", err)
	}
	nan := &sparse.CSR{N: l.N, RowPtr: l.RowPtr, Col: l.Col, Val: slices.Clone(l.Val)}
	nan.Val[len(nan.Val)/2] = math.NaN()
	if err := checkFactorSize(nan); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN factor: %v, want ErrNonFinite", err)
	}
}

func TestPermutationHelpers(t *testing.T) {
	m, _ := Generate("grid2d", 400)
	p, err := Build(m, CSRCOL)
	if err != nil {
		t.Fatal(err)
	}
	perm := p.Permutation()
	if len(perm) != p.N() {
		t.Fatal("permutation length wrong")
	}
	v := make([]float64, p.N())
	for i := range v {
		v[i] = float64(i)
	}
	round := p.UnpermuteVector(p.PermuteVector(v))
	for i := range v {
		if round[i] != v[i] {
			t.Fatal("permute/unpermute not inverse")
		}
	}
	// Mutating the returned permutation must not corrupt the plan.
	perm[0] = -999
	if p.Permutation()[0] == -999 {
		t.Fatal("Permutation() exposed internal state")
	}
}

func TestStats(t *testing.T) {
	m, _ := Generate("trimesh", 1200)
	col, _ := Build(m, STS3, WithRowsPerSuper(10))
	ls, _ := Build(m, CSRLS)
	sc, sl := col.Stats(), ls.Stats()
	if sc.NumPacks >= sl.NumPacks {
		t.Fatalf("STS-3 packs %d not fewer than CSR-LS %d", sc.NumPacks, sl.NumPacks)
	}
	if sc.WorkShareTop5 <= sl.WorkShareTop5 {
		t.Fatal("STS-3 should concentrate work in fewer packs")
	}
	if sc.Rows != m.N() || sc.NNZ <= 0 || sc.LargestPackRows <= 0 {
		t.Fatalf("stats incomplete: %+v", sc)
	}
}

func TestSimulate(t *testing.T) {
	m, _ := Generate("trimesh", 1000)
	p, err := Build(m, STS3, WithRowsPerSuper(10))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range MachineNames() {
		res, err := p.Simulate(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Cycles == 0 || res.HitRate <= 0 {
			t.Fatalf("%s: empty result %+v", name, res)
		}
	}
	if _, err := p.Simulate("cray", 8); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestReadMatrixMarketFacade(t *testing.T) {
	src := `%%MatrixMarket matrix coordinate real general
4 4 7
1 1 4.0
2 2 4.0
3 3 4.0
4 4 4.0
2 1 -1.0
3 2 -1.0
4 3 -1.0
`
	m, err := ReadMatrixMarket(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	// The triangular input must have been symmetrised.
	p, err := Build(m, STS3)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := []float64{1, 2, 3, 4}
	b := p.RHSFor(xTrue)
	x, err := p.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := p.Residual(x, b); r > 1e-12 {
		t.Fatalf("residual %g", r)
	}
	if _, err := ReadMatrixMarket(strings.NewReader("junk")); err == nil {
		t.Fatal("junk accepted")
	}
}
