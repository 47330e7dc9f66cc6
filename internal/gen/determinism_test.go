package gen

import (
	"math"
	"testing"

	"stsk/internal/sparse"
)

// fingerprint folds a matrix's structure and the bits of its values into
// a cheap hash.
func fingerprint(m *sparse.CSR) uint64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	mix(uint64(m.N))
	for _, p := range m.RowPtr {
		mix(uint64(p))
	}
	for k, c := range m.Col {
		mix(uint64(c))
		mix(math.Float64bits(m.Val[k]))
	}
	return h
}

func TestGeneratorsDeterministic(t *testing.T) {
	builders := map[string]func() *sparse.CSR{
		"grid2d":   func() *sparse.CSR { return Grid2D(13, 11) },
		"grid3d":   func() *sparse.CSR { return Grid3D(5, 6, 7) },
		"kkt3d":    func() *sparse.CSR { return KKT3D(6, 6, 6) },
		"fem3d":    func() *sparse.CSR { return FEM3D(5, 5, 5, 2) },
		"rgg":      func() *sparse.CSR { return RGG(900, RGGDegree(900, 12), 3) },
		"trimesh":  func() *sparse.CSR { return TriMesh(17, 17, 9) },
		"quaddual": func() *sparse.CSR { return QuadDual(12, 12, 5) },
		"roadnet":  func() *sparse.CSR { return RoadNet(9, 9, 3, 7, 2) },
	}
	for name, build := range builders {
		a, b := build(), build()
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: two builds differ", name)
		}
	}
}

// TestByClassPinned pins every class ByClass builds to its matrix bits at
// four sizes, the smallest at the floor of 16 rows that stsk.Generate,
// cmd/stsgen and the solve benchmark all read below it.
func TestByClassPinned(t *testing.T) {
	sizes := [4]int{16, 150, 1000, 20000}
	for _, tc := range []struct {
		class string
		want  [4]uint64
	}{
		{"grid2d", [4]uint64{0xc5a6e96e40904f73, 0x571eae25ca54c03, 0xbbc9a3f559fa4149, 0x3fcd98e7393a553d}},
		{"grid3d", [4]uint64{0x26454b587a823d3, 0x9345d6b9bb80d44d, 0x6dc5f3e6d458e613, 0xabd2b61e87f9905f}},
		{"kkt3d", [4]uint64{0x549c5ba0b8651083, 0x66dc02270cca9545, 0x736e5be0ce801363, 0x7a1d887fc5cbe77b}},
		{"fem3d", [4]uint64{0xf38be5fe333dab4b, 0x25f56feec532f47b, 0x889e396e740b91df, 0x959c39662442ef3}},
		{"rgg", [4]uint64{0xe2ab8de0997d892b, 0x53cf6e6a3b3b6ea3, 0x6f70810e8045be5f, 0xd8264bd2eb664c3}},
		{"trimesh", [4]uint64{0x465d649d6e58b31d, 0xd6d1b4cad0980b35, 0xc43a341a38cb2313, 0xad3c4271d6339085}},
		{"quaddual", [4]uint64{0x657f6e8a8c87b21f, 0x8e5bfe281340b581, 0xc7b7b4a90bbfa3cd, 0x3e62d39b521df45}},
		{"roadnet", [4]uint64{0x1be1db72164aec63, 0x6ac369c89f5b13d3, 0x5020b8ac17c569d3, 0xf88e1b9221bdd67b}},
	} {
		for i, n := range sizes {
			a := ByClass(tc.class, n)
			if a == nil {
				t.Fatalf("%s: unknown class", tc.class)
			}
			if got := fingerprint(a); got != tc.want[i] {
				t.Errorf("%s n=%d: fingerprint %#x, want %#x", tc.class, n, got, tc.want[i])
			}
		}
		if fingerprint(ByClass(tc.class, 3)) != tc.want[0] {
			t.Errorf("%s: n = 3 is not read as 16", tc.class)
		}
	}
	if ByClass("nope", 100) != nil {
		t.Error("unknown class built a matrix")
	}
}

func TestSuiteDeterministicAcrossCalls(t *testing.T) {
	s1 := PaperSuite(1200)
	s2 := PaperSuite(1200)
	for i := range s1 {
		a := s1[i].Build(1200)
		b := s2[i].Build(1200)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: suite build not deterministic", s1[i].ID)
		}
	}
}

func TestQuadDualSeedsDiffer(t *testing.T) {
	a := QuadDual(14, 14, 1)
	b := QuadDual(14, 14, 2)
	if fingerprint(a) == fingerprint(b) {
		t.Fatal("different seeds produced identical duals")
	}
}

func TestHugebubblesInstancesDiffer(t *testing.T) {
	// D6, D7, D8 are three different hugebubbles instances; their
	// stand-ins must not be byte-identical.
	specs := PaperSuite(2000)
	d6 := BySuiteID(specs, "D6").Build(2000)
	d7 := BySuiteID(specs, "D7").Build(2000)
	if d6.N == d7.N && fingerprint(d6) == fingerprint(d7) {
		t.Fatal("D6 and D7 are identical")
	}
}
